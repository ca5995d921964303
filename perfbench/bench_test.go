package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"trajmatch/internal/server"
	"trajmatch/internal/traj"
)

// seq returns 1..n, unsorted on purpose.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestSummarizeTailRule(t *testing.T) {
	for _, c := range []struct {
		n       int
		pct     float64
		tail    float64
		beyond  int
		comment string
	}{
		{3000, 99, 2970, 30, "p99 needs 3000 samples"},
		{2999, 95, 2850, 149, "2999 leaves p99 with 29 beyond"},
		{600, 95, 570, 30, "p95 needs 600 samples"},
		{599, 90, 540, 59, ""},
		{300, 90, 270, 30, "p90 needs 300 samples"},
		{299, 0, 0, 0, "no rung has thirty beyond"},
	} {
		s := summarize(seq(c.n))
		if s.TailPct != c.pct || s.Tail != c.tail || s.Beyond != c.beyond {
			t.Errorf("n=%d: got p%v=%v (%d beyond), want p%v=%v (%d beyond) %s",
				c.n, s.TailPct, s.Tail, s.Beyond, c.pct, c.tail, c.beyond, c.comment)
		}
		if want := float64((c.n + 1) / 2); s.P50 != want {
			t.Errorf("n=%d: p50 %v, want %v", c.n, s.P50, want)
		}
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 99); got != 5 {
		t.Errorf("percentile p99 of 1..5 = %v, want 5", got)
	}
}

var testSpec = spec{
	name: "test", corpus: 150, flags: nil,
	knn: 3, rng: 2, sub: 1, pre: 2, appends: 5, appendRounds: 3,
	tracks: 4, watches: 2, reasks: 20,
}

// streamOf flattens a run's inputs to what the server would receive.
func streamOf(t *testing.T, seed int64) ([]time.Duration, [][]byte, [][]byte, []int) {
	t.Helper()
	in, err := makeInputs(testSpec, seed, 6, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ats []time.Duration
	var bodies [][]byte
	for _, o := range in.open {
		ats = append(ats, o.at)
		bodies = append(bodies, o.body)
	}
	for _, l := range in.capOps {
		for _, o := range l {
			bodies = append(bodies, o.body)
		}
	}
	return ats, bodies, in.watches, in.reasks
}

// TestInputsDeterministicPerSeed covers both random streams: the
// Poisson arrival times with their bodies, and the Zipf cache re-asks.
func TestInputsDeterministicPerSeed(t *testing.T) {
	a1, b1, w1, z1 := streamOf(t, 7)
	a2, b2, w2, z2 := streamOf(t, 7)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(w1, w2) || !reflect.DeepEqual(z1, z2) {
		t.Fatal("same seed produced different streams")
	}
	a3, b3, _, z3 := streamOf(t, 8)
	if reflect.DeepEqual(a1, a3) || reflect.DeepEqual(b1, b3) || reflect.DeepEqual(z1, z3) {
		t.Fatal("different seeds produced the same stream")
	}
}

func TestScheduleShape(t *testing.T) {
	const seconds = 6
	in, err := makeInputs(testSpec, 3, seconds, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(in.phases) != 2 {
		t.Fatalf("%d phases, want reads then appends", len(in.phases))
	}
	for p, ph := range in.phases {
		roundLen := seconds * time.Second / readRounds
		if ph.roundLen != roundLen {
			t.Errorf("phase %d: rounds of %v, want %v", p, ph.roundLen, roundLen)
		}
		n := map[[2]int]int{} // (round, kind) -> count
		for i, o := range ph.ops {
			if i > 0 && o.at < ph.ops[i-1].at {
				t.Fatalf("phase %d: op %d scheduled before op %d", p, i, i-1)
			}
			if lo := time.Duration(o.round) * roundLen; o.at < lo || o.at >= lo+roundLen+time.Millisecond {
				t.Errorf("phase %d: op at %v outside its round %d", p, o.at, o.round)
			}
			if (p == 0) != o.kind.search() && o.kind != opSeal {
				t.Errorf("phase %d carries a %v", p, o.kind)
			}
			n[[2]int{o.round, int(o.kind)}]++
		}
		// Every round carries the spec's counts, and a third are reported.
		rounds := ph.ops[len(ph.ops)-1].round + 1
		if want := rounds / keptShare; ph.need != want {
			t.Errorf("phase %d reports %d rounds, want %d", p, ph.need, want)
		}
		for r := 0; r < rounds; r++ {
			want := map[opKind]int{opKNN: 3, opRange: 2, opSub: 1, opPre: 2}
			if p == 1 {
				want = map[opKind]int{opAppend: 5}
			}
			for k, c := range want {
				if n[[2]int{r, int(k)}] != c {
					t.Errorf("phase %d round %d: %d %v, want %d", p, r, n[[2]int{r, int(k)}], k, c)
				}
			}
		}
	}
	// Zipf: the most popular re-asked query is drawn more than most.
	hits := map[int]int{}
	for _, i := range in.reasks {
		if in.open[i].kind != opKNN {
			t.Fatalf("re-ask of a %v", in.open[i].kind)
		}
		hits[i]++
	}
	if len(hits) == len(in.reasks) {
		t.Errorf("%d re-asks never repeat a query", len(in.reasks))
	}
}

// TestOpenLoopTimesFromSchedule pins the open-loop rule: with one
// connection and a server that takes 50ms, a request scheduled 1ms
// after the first waits for it, and that wait is in its latency.
func TestOpenLoopTimesFromSchedule(t *testing.T) {
	old := conns
	conns = 1
	defer func() { conns = old }()
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		time.Sleep(50 * time.Millisecond)
		w.Write([]byte(`{"results":[]}`))
	}))
	defer srv.Close()
	ph := phase{need: 1, roundLen: 200 * time.Millisecond, ops: []*op{
		{kind: opKNN, at: 0, path: "/v1/search", body: []byte(`{}`), track: -1},
		{kind: opKNN, at: time.Millisecond, path: "/v1/search", body: []byte(`{}`), track: -1},
	}}
	outs := make([]outcome, len(ph.ops))
	pr := runPhase(context.Background(), newClient(), srv.URL, ph, outs)
	if !outs[0].ok || !outs[1].ok {
		t.Fatalf("outcomes %+v", outs)
	}
	if len(pr.kept) != len(pr.steal) || !pr.kept[0] {
		t.Errorf("round 0 not reported: %+v", pr)
	}
	if outs[1].latMS < 95 {
		t.Errorf("second request latency %.1fms excludes its wait behind the first", outs[1].latMS)
	}
	if outs[1].lateMS > 20 {
		t.Errorf("generator %.1fms late dispatching an idle schedule", outs[1].lateMS)
	}
}

// TestStealGuard pins which rounds are reported: the need least-stolen,
// and a phase goes on while one of those is over the limit.
func TestStealGuard(t *testing.T) {
	steal := []float64{0.002, 0.05, 0.0, 0.002}
	if got, want := leastStolen(steal, 3), []bool{true, false, true, true}; !reflect.DeepEqual(got, want) {
		t.Errorf("leastStolen = %v, want %v", got, want)
	}
	if spoiled(steal, 3) {
		t.Error("three clean rounds of four reported as spoiled")
	}
	if !spoiled(steal[:3], 3) || !spoiled(steal[:2], 3) {
		t.Error("a spoiled round, or too few rounds, not reported as spoiled")
	}
	if m := meanKept(steal, leastStolen(steal, 3)); math.Abs(m-0.004/3) > 1e-12 {
		t.Errorf("meanKept = %v", m)
	}
}

func TestRefusalsCountAsFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/refuse":
			w.WriteHeader(http.StatusServiceUnavailable)
		case "/truncated":
			w.Write([]byte(`{"results":[],"truncated":true}`))
		case "/append":
			w.Write([]byte(`{"id":1,"offset":3,"length":4}`))
		}
	}))
	defer srv.Close()
	c := newClient()
	for _, o := range []*op{
		{kind: opKNN, path: "/refuse", track: -1},
		{kind: opKNN, path: "/truncated", track: -1},
		{kind: opAppend, path: "/append", off: 2, track: -1}, // acked at the wrong offset
	} {
		var out outcome
		do(context.Background(), c, srv.URL, o, &out)
		if out.ok || !out.sent {
			t.Errorf("%s: counted as success: %+v", o.path, out)
		}
	}
	r := &runner{rec: &record{Checks: map[string][2]int{}}}
	r.count(true)
	r.count(false)
	r.check("x", false)
	if r.attempted != 2 || r.failed != 2 || r.rec.Checks["x"] != [2]int{0, 1} {
		t.Errorf("attempted %d failed %d checks %v", r.attempted, r.failed, r.rec.Checks)
	}
}

func TestRecallTieAware(t *testing.T) {
	exact := []scored{{1, 1}, {2, 2}, {3, 3}}
	got := decodeOrDie(t, `[{"id":1,"dist":1},{"id":9,"dist":2},{"id":4,"dist":3.5}]`)
	if r := recallAt(got, exact); r != 2.0/3 {
		t.Errorf("recall %v, want 2/3 (a tie at distance 2 is no miss)", r)
	}
	if !sameAnswer(got[:1], exact[:1]) || sameAnswer(got[:2], exact[:2]) {
		t.Error("sameAnswer must compare IDs and distances exactly")
	}
}

func decodeOrDie(t *testing.T, s string) []server.Neighbor {
	t.Helper()
	ns, ok := decodeNeighbors(bytes.TrimSpace([]byte(s)))
	if !ok {
		t.Fatal("bad neighbors JSON")
	}
	return ns
}

func TestCompareRefusesMixedMachines(t *testing.T) {
	dir := t.TempDir()
	write := func(name, cpu string) string {
		p := dir + "/" + name
		rec := record{Tags: tags{CPU: cpu, NProc: 2, GOMAXPROCS: 2, GoVersion: "go1", Workload: "w", Seconds: 10},
			Metrics: map[string]metricOut{"m": {1, "ms"}}}
		b, _ := json.Marshal(rec)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := write("a", "cpu-a"), write("b", "cpu-a"), write("c", "cpu-b")
	if err := compareRecords(a, b); err != nil {
		t.Errorf("same machine refused: %v", err)
	}
	if err := compareRecords(a, c); err == nil {
		t.Error("mixed machines compared")
	}
}

// TestRecoveredStateKeepsUnsealedWholeTrips pins the acknowledged state
// the recovery checks compare against. A track whose every point was
// acknowledged but whose seal was never sent (its phase ended first) is
// still held, live, with all its points.
func TestRecoveredStateKeepsUnsealedWholeTrips(t *testing.T) {
	pts := func(n int) []traj.Point {
		out := make([]traj.Point, n)
		for i := range out {
			out[i] = traj.P(float64(i), 0, float64(i))
		}
		return out
	}
	in := &inputs{db: []*traj.Trajectory{{ID: 1, Points: pts(3)}}}
	for i := 0; i < 4; i++ {
		in.tracks = append(in.tracks, &track{id: trackIDBase + i, src: &traj.Trajectory{Points: pts(4)}})
	}
	acked := []ackedTrack{{length: 4, sealed: true}, {length: 4}, {length: 2}, {}}
	state, probes, sealedPts := recoveredState(in, acked)
	held := map[int]int{}
	for _, tr := range state {
		held[tr.ID] = len(tr.Points)
	}
	want := map[int]int{1: 3, trackIDBase: 4, trackIDBase + 1: 4, trackIDBase + 2: 3}
	if !reflect.DeepEqual(held, want) {
		t.Errorf("held %v, want %v", held, want)
	}
	if sealedPts != 4 {
		t.Errorf("sealed points %d, want 4", sealedPts)
	}
	var self []int
	for _, p := range probes {
		if p.self {
			self = append(self, p.ti)
		}
	}
	if len(probes) != 3 || !reflect.DeepEqual(self, []int{0, 1}) {
		t.Errorf("probes %d, self-match probes on tracks %v, want 3 and [0 1]", len(probes), self)
	}
}
