// Command perfbench is trajmatch's end-to-end benchmark. For one
// workload it generates a corpus and a request stream from --seed, boots
// the real trajserve binary on loopback, drives /v1 open loop for
// --seconds and closed loop for a capacity phase, checks the answers,
// and prints every metric by name with its unit. With --trace 1 it also
// replays the same stream in process through each layer's public
// functions and prints the per-layer metrics instead. README.md
// describes the workloads and the metrics.
//
//	go run . --workload exact-mix --seed 1 --seconds 36 --trace 0
//	go run . compare a.json b.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"trajmatch/internal/server"
)

func main() {
	if len(os.Args) == 4 && os.Args[1] == "compare" {
		if err := compareRecords(os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "workload name: exact-mix or ingest-restart")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "open-loop measurement length")
		trace    = flag.Int("trace", 0, "1: also run the traced in-process replay and print per-layer metrics")
		bin      = flag.String("bin", ".bench_build/bin/trajserve", "trajserve binary")
		work     = flag.String("work", ".bench_build/perfbench", "directory for run files and result records")
		root     = flag.String("root", ".", "repository root (for the source tag)")
	)
	flag.Parse()
	sp, ok := specByName(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {exact-mix|ingest-restart} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	conns = min(2, runtime.NumCPU())
	tg := tags{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: sourceCommit(*root), Workload: sp.name,
		Seed: *seed, Seconds: *seconds, Trace: *trace}
	rec, err := run(sp, tg, *bin, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	report(rec, *work)
}

// runner carries one run's state.
type runner struct {
	sp     spec
	tg     tags
	bin    string
	dir    string
	in     *inputs
	client *http.Client
	rec    *record

	attempted, failed int
	setup             []float64
}

func (r *runner) count(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func (r *runner) check(name string, ok bool) {
	c := r.rec.Checks[name]
	c[1]++
	if ok {
		c[0]++
	} else {
		r.failed++
	}
	r.rec.Checks[name] = c
}

func (r *runner) set(name, unit string, v float64) {
	r.rec.Metrics[name] = metricOut{Value: v, Unit: unit}
}

func run(sp spec, tg tags, bin, work string) (*record, error) {
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("trajserve binary: %w", err)
	}
	dir := filepath.Join(work, fmt.Sprintf("run-%s-%d-%d", sp.name, tg.Seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := makeInputs(sp, tg.Seed, float64(tg.Seconds), dir)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	r := &runner{sp: sp, tg: tg, bin: bin, dir: dir, in: in, client: newClient(),
		rec: &record{Tags: tg, Metrics: map[string]metricOut{}, Latency: map[string]summary{},
			Checks: map[string][2]int{}, Extra: map[string]float64{},
			Steal: map[string]float64{}, Rounds: map[string][2]int{}, RoundSteal: map[string][]float64{}}}
	r.rec.Notes = append(r.rec.Notes, in.describe())
	if err := r.serve(); err != nil {
		return nil, err
	}
	if tg.Trace == 1 {
		if err := r.traced(); err != nil {
			return nil, err
		}
	}
	r.rec.Attempted, r.rec.Failed = r.attempted, min(r.failed, r.attempted)
	r.rec.Correct = r.rec.Failed == 0
	return r.rec, nil
}

func (r *runner) args() []string {
	a := []string{"-db", r.in.csvPath, "-snapshot", filepath.Join(r.dir, "snap")}
	if r.sp.crash {
		a = append(a, "-wal", filepath.Join(r.dir, "wal"))
	}
	return append(a, r.sp.flags...)
}

// boots boots trajserve n times in a row and keeps the last process
// serving. When timed, it boots more, up to n+extraRounds times, while
// one of the n least-stolen boots lost more than stealLimit of the CPU
// to the host, and the launch-to-healthy times of those n boots are the
// set-up samples.
func (r *runner) boots(n int, timed bool) (*proc, error) {
	var secs, steal []float64
	for {
		m := newStealMeter()
		p, s, err := boot(r.bin, r.args(), filepath.Join(r.dir, "trajserve.log"))
		if err != nil {
			return nil, err
		}
		secs, steal = append(secs, s), append(steal, m.lap())
		if len(steal) < n || (timed && len(steal) < n+extraRounds && spoiled(steal, n)) {
			p.kill()
			continue
		}
		if timed {
			kept := leastStolen(steal, n)
			for i, k := range kept {
				if k {
					r.setup = append(r.setup, secs[i])
				}
			}
			r.noteSteal("setup", steal, kept)
		}
		return p, nil
	}
}

// noteSteal records the steal of one measured part: the mean over its
// reported entries, and how many entries ran and were spoiled.
func (r *runner) noteSteal(part string, steal []float64, kept []bool) {
	bad := 0
	for _, f := range steal {
		if f > stealLimit {
			bad++
		}
	}
	r.rec.Steal[part] = meanKept(steal, kept)
	r.rec.Rounds[part] = [2]int{len(steal), bad}
	r.rec.RoundSteal[part] = steal
}

// serve runs the untraced run against trajserve and fills the
// end-to-end metrics (and the generator's own per-layer numbers).
func (r *runner) serve() error {
	ctx := context.Background()
	in := r.in
	// Set-up: a cold build from the corpus, measured bootRepeats times,
	// except under --trace 1 and on ingest-restart, whose set-up is the
	// crash-recovery boot measured later.
	repeats := bootRepeats
	if r.tg.Trace == 1 || r.sp.crash {
		repeats = 1
	}
	p, err := r.boots(repeats, !r.sp.crash)
	if err != nil {
		return err
	}
	defer func() {
		if p != nil {
			p.kill()
		}
	}()
	for _, body := range in.watches {
		o := &op{kind: opControl, path: "/v1/watch", body: body, track: -1}
		var out outcome
		do(ctx, r.client, p.base, o, &out)
		r.count(out.ok)
	}
	for _, o := range in.warm {
		var out outcome
		do(ctx, r.client, p.base, o, &out)
		r.count(out.ok)
	}
	var st0, st1 server.Stats
	if err := getJSON(ctx, r.client, p.base+"/v1/stats", &st0); err != nil {
		return err
	}
	// The generator's own collector stays off while it measures, so its
	// pauses and marking never compete with the server for the CPUs; a
	// run allocates a few tens of MB at most.
	runtime.GC()
	gcPct := debug.SetGCPercent(-1)
	outs := make([]outcome, len(in.open))
	reported := make([]bool, len(in.open))
	runPh := func(k int, part string) {
		off := 0
		for _, ph := range in.phases[:k] {
			off += len(ph.ops)
		}
		ph := in.phases[k]
		pr := runPhase(ctx, r.client, p.base, ph, outs[off:off+len(ph.ops)])
		for i, o := range ph.ops {
			reported[off+i] = o.round < len(pr.kept) && pr.kept[o.round]
		}
		r.noteSteal(part, pr.steal, pr.kept)
	}
	// The reads come first. On the serving workloads the result cache is
	// then checked on repeats of answered queries and capacity is
	// measured on the read mix, before the append phase invalidates
	// anything.
	runPh(0, "reads")
	for _, i := range in.reasks {
		var out outcome
		do(ctx, r.client, p.base, in.open[i], &out)
		r.count(out.ok)
		if outs[i].ok && out.ok {
			r.check("cache_identity", bytes.Equal(out.results, outs[i].results))
		}
	}
	if err := getJSON(ctx, r.client, p.base+"/v1/stats", &st1); err != nil {
		return err
	}
	capOuts, capQPS, capSteal, capKept, err := runClosed(ctx, r.client, p.base, in.capOps)
	if err != nil {
		return err
	}
	r.noteSteal("capacity", capSteal, capKept)
	if len(in.phases) > 1 {
		runPh(1, "appends")
	}
	debug.SetGCPercent(gcPct)
	rss, err := p.peakRSSMB()
	if err != nil {
		return err
	}

	lat := map[opKind][]float64{}
	var late []float64
	sent, failedOpen := 0, 0
	for i := range in.open {
		if !outs[i].sent {
			continue
		}
		sent++
		late = append(late, outs[i].lateMS)
		r.count(outs[i].ok)
		if !outs[i].ok {
			failedOpen++
		}
		if reported[i] {
			lat[in.open[i].kind] = append(lat[in.open[i].kind], outs[i].latMS)
		}
	}
	for w := range capOuts {
		for _, out := range capOuts[w] {
			if out.sent {
				r.count(out.ok)
			}
		}
	}
	r.rec.Extra["engine.cache_hit_ratio"] = ratio(float64(st1.CacheHits-st0.CacheHits), float64(st1.Queries-st0.Queries))
	r.rec.Extra["gen.late_p99_ms"] = percentile(late, 99)
	r.rec.Extra["gen.sent"] = float64(sent)
	r.rec.Extra["gen.failed"] = float64(failedOpen)

	// Oracle over the booted corpus.
	cs := sampleChecks(in, outs, r.sp.oracle, r.tg.Seed)
	var recall []float64
	for i, v := range runChecks(cs) {
		r.check("oracle."+cs[i].kind.String(), v.ok)
		if cs[i].kind == opPre {
			recall = append(recall, v.recall)
		}
	}

	sealedPts := 0
	if r.sp.crash {
		acked := ackedState(in, outs, capOuts)
		p.kill()
		if p, err = r.boots(bootRepeats, true); err != nil {
			return fmt.Errorf("recovery boot: %w", err)
		}
		rc, pts, err := r.verifyRecovery(ctx, p, acked)
		if err != nil {
			return err
		}
		recall = append(recall, rc...)
		sealedPts = pts
	} else {
		sealedPts = sealedPoints(in, outs, capOuts)
	}

	var saves []float64
	for i := 0; i < snapshotRepeats; i++ {
		var out outcome
		t0 := time.Now()
		do(ctx, r.client, p.base, &op{kind: opControl, path: "/v1/snapshot", track: -1}, &out)
		saves = append(saves, time.Since(t0).Seconds())
		r.count(out.ok)
	}
	snapBytes, err := dirBytes(filepath.Join(r.dir, "snap"))
	if err != nil {
		return err
	}
	userPts := sealedPts
	for _, t := range in.db {
		userPts += len(t.Points)
	}

	for _, k := range []opKind{opKNN, opRange, opSub, opPre, opAppend} {
		r.rec.Latency[k.String()] = summarize(lat[k])
	}
	kn, rg, sb, pf, ap := r.rec.Latency["knn"], r.rec.Latency["range"], r.rec.Latency["subknn"],
		r.rec.Latency["prefilter"], r.rec.Latency["append"]
	r.set("setup_s", "s", median(r.setup))
	r.set("knn_p50_ms", "ms", kn.P50)
	r.set("knn_tail_ms", "ms", kn.Tail)
	r.set("range_p50_ms", "ms", rg.P50)
	r.set("range_tail_ms", "ms", rg.Tail)
	r.set("subknn_p50_ms", "ms", sb.P50)
	r.set("prefilter_p50_ms", "ms", pf.P50)
	r.set("prefilter_tail_ms", "ms", pf.Tail)
	r.set("recall_at_10", "ratio", mean(recall))
	r.set("capacity_qps", "1/s", capQPS)
	r.set("append_p50_ms", "ms", ap.P50)
	r.set("append_tail_ms", "ms", ap.Tail)
	r.set("snapshot_save_s", "s", median(saves))
	r.set("snapshot_bytes_per_point", "B/pt", float64(snapBytes)/float64(userPts))
	r.set("rss_peak_mb", "MB", rss)
	r.set("ok_frac", "ratio", 1-ratio(float64(min(r.failed, r.attempted)), float64(r.attempted)))
	for _, s := range []summary{kn, rg, pf, ap} {
		if s.TailPct == 0 {
			return fmt.Errorf("a latency set has %d samples, too few for any tail percentile", s.N)
		}
	}
	return nil
}

// traced runs the in-process replay and swaps the printed metrics for
// the per-layer ones.
func (r *runner) traced() error {
	tr, err := runTrace(r.in, r.dir)
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	c := r.rec.Checks["trace_identity"]
	c[0], c[1] = tr.replayed-tr.mismatches, tr.replayed
	r.rec.Checks["trace_identity"] = c
	r.failed += tr.mismatches
	c = r.rec.Checks["trace_counters"]
	c[0], c[1] = tr.counterChecks-tr.counterMismatches, tr.counterChecks
	r.rec.Checks["trace_counters"] = c
	r.failed += tr.counterMismatches
	r.rec.SelfMS = tr.selfMS
	out := map[string]metricOut{}
	for name, v := range tr.metrics {
		out[name] = metricOut{Value: v, Unit: layerUnit(name)}
	}
	for name, v := range r.rec.Extra {
		out[name] = metricOut{Value: v, Unit: layerUnit(name)}
	}
	// A traced run prints the per-layer metrics; its own end-to-end
	// latencies stay in the record's latency section.
	r.rec.Metrics = out
	spans, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(filepath.Dir(r.dir),
		fmt.Sprintf("spans-%s-seed%d.json", r.sp.name, r.tg.Seed)), spans, 0o644)
}

func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ns_per_cell"):
		return "ns/cell"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_recall"):
		return "ratio"
	case strings.HasSuffix(name, "_bytes"):
		return "B"
	case strings.HasSuffix(name, "bytes_per_point"):
		return "B/pt"
	}
	return "count"
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// report prints the metrics by name and unit, writes the run record,
// and ends stdout with the one-line result.
func report(rec *record, work string) {
	tagLine, _ := json.Marshal(rec.Tags)
	fmt.Println("tags", string(tagLine))
	for _, n := range sortedKeys(rec.Metrics) {
		fmt.Printf("%-32s %14.6g %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
	for _, k := range sortedKeys(rec.Latency) {
		s := rec.Latency[k]
		fmt.Printf("latency %-10s n=%d p50=%.3fms p%.0f=%.3fms (%d beyond)\n", k, s.N, s.P50, s.TailPct, s.Tail, s.Beyond)
	}
	for _, k := range sortedKeys(rec.Steal) {
		n := rec.Rounds[k]
		fmt.Printf("host steal %-10s %.2f%% over the reported part (%d run, %d spoiled)\n", k, 100*rec.Steal[k], n[0], n[1])
	}
	for _, k := range sortedKeys(rec.Checks) {
		c := rec.Checks[k]
		fmt.Printf("check %-20s %d/%d\n", k, c[0], c[1])
	}
	if b, err := json.MarshalIndent(rec, "", "  "); err == nil {
		path := filepath.Join(work, fmt.Sprintf("result-%s-seed%d-trace%d.json", rec.Tags.Workload, rec.Tags.Seed, rec.Tags.Trace))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write record:", err)
		}
	}
	for n, m := range rec.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rec.Metrics[n] = metricOut{Value: 0, Unit: m.Unit}
			rec.Correct = false
		}
	}
	last, _ := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Println(string(last))
}
