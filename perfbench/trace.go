package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"trajmatch/internal/arena"
	"trajmatch/internal/backend"
	"trajmatch/internal/core"
	"trajmatch/internal/metrics"
	"trajmatch/internal/server"
	"trajmatch/internal/sketch"
	"trajmatch/internal/tbox"
	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
	"trajmatch/internal/wal"
)

// The traced run replays a workload's request stream in process,
// through the public functions of each layer, and records a span around
// every call into a layer. It never runs beside the untraced run, whose
// numbers are the end-to-end ones.

// span is one timed call into a layer. Spans of one request share Req;
// Parent indexes the enclosing span (-1 for a request root).
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. The mirror's shards record spans
// concurrently, so the span list is guarded.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, req, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	t.mu.Lock()
	t.spans[i].End = int64(time.Since(t.t0))
	t.mu.Unlock()
}

// ms and us are a finished span's duration.
func (t *tracer) ms(i int) float64 { return float64(t.spans[i].End-t.spans[i].Start) / 1e6 }
func (t *tracer) us(i int) float64 { return float64(t.spans[i].End-t.spans[i].Start) / 1e3 }

// selfTimes sums, per span name, the span's duration minus the time its
// child spans cover. The mirror's shard spans run side by side, so a
// mirror span's self time can read below zero: it is the wall time the
// shards overlapped.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e6
	}
	return out
}

// perRequest returns, per request, the summed duration (ms) of spans
// named name.
func (t *tracer) perRequest(name string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Req] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

func values(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// serveTreeOptions are the TrajTree options trajserve builds with by
// default (its -theta, -vps, -cumulative and -seed flag defaults).
var serveTreeOptions = trajtree.Options{Theta: 0.8, NumVPs: 80, Parallel: true, Seed: 1}

// mirror is the engine's sharded search rebuilt from public functions:
// hash placement, one TrajTree and one sketch per shard, and a
// (distance, ID) merge under one shared bound.
type mirror struct {
	trees    []*trajtree.Tree
	sketches []*sketch.Index
}

// serveShards is the -shards every workload boots trajserve with.
const serveShards = 2

func buildMirror(db []*traj.Trajectory) (*mirror, float64, error) {
	groups := make([][]*traj.Trajectory, serveShards)
	for _, t := range db {
		s := server.ShardOf(t.ID, serveShards)
		groups[s] = append(groups[s], t)
	}
	m := &mirror{trees: make([]*trajtree.Tree, serveShards), sketches: make([]*sketch.Index, serveShards)}
	errs := make([]error, serveShards)
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range groups {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.trees[i], errs[i] = trajtree.New(groups[i], serveTreeOptions)
		}(i)
	}
	wg.Wait()
	buildS := time.Since(t0).Seconds()
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	// The cell size is whole-corpus state, derived before sharding.
	p := sketch.Params{CellSize: sketch.DeriveCellSize(db)}.WithDefaults()
	for i, g := range groups {
		ix, err := sketch.Build(g, p)
		if err != nil {
			return nil, 0, err
		}
		m.sketches[i] = ix
	}
	return m, buildS, nil
}

// prefilterWant mirrors the engine's per-shard candidate request:
// 8·k or 1/24 of the shard, whichever is larger.
func prefilterWant(k, size int) int {
	return max(8*k, size/24)
}

type mirrorOut struct {
	res   []backend.Result
	st    backend.Stats
	cands []int
}

// search answers one query the way the engine's fan-out does: every
// shard searched at once under one shared bound (range needs none),
// then a (distance, ID) merge.
func (m *mirror) search(tr *tracer, req int, parent int, q *traj.Trajectory, sq server.Query) (mirrorOut, error) {
	var out mirrorOut
	var bound *backend.SharedBound
	if sq.Kind != server.KindRange {
		bound = backend.NewSharedBound(math.Inf(1))
	}
	n := len(m.trees)
	per := make([][]backend.Result, n)
	sts := make([]backend.Stats, n)
	cands := make([][]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range m.trees {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tree := m.trees[i]
			switch {
			case sq.Kind == server.KindRange:
				s := tr.begin("trajtree.range", req, parent)
				per[i], sts[i], _, errs[i] = tree.SearchRange(q, sq.Radius, nil)
				tr.end(s)
			case sq.Kind == server.KindSubKNN:
				s := tr.begin("trajtree.sub", req, parent)
				per[i], sts[i], _, errs[i] = tree.SearchSub(q, sq.K, bound, nil)
				tr.end(s)
			case sq.Prefilter:
				s := tr.begin("sketch.candidates", req, parent)
				cands[i], _ = m.sketches[i].Candidates(q, prefilterWant(sq.K, tree.Size()))
				tr.end(s)
				s = tr.begin("trajtree.verify", req, parent)
				per[i], sts[i], _, errs[i] = tree.SearchKNNIn(q, cands[i], sq.K, bound, nil)
				tr.end(s)
				sts[i].PrefilterCandidates += len(cands[i])
				sts[i].PrefilterSkipped += tree.Size() - len(cands[i])
			default:
				s := tr.begin("trajtree.knn", req, parent)
				per[i], sts[i], _, errs[i] = tree.SearchKNN(q, sq.K, bound, nil)
				tr.end(s)
			}
		}(i)
	}
	wg.Wait()
	for i := range m.trees {
		if errs[i] != nil {
			return out, errs[i]
		}
		out.st.Add(sts[i])
		out.cands = append(out.cands, cands[i]...)
	}
	s := tr.begin("engine.merge", req, parent)
	if sq.Kind == server.KindRange {
		for _, rs := range per {
			out.res = append(out.res, rs...)
		}
		sort.Slice(out.res, func(a, b int) bool {
			if out.res[a].Dist != out.res[b].Dist {
				return out.res[a].Dist < out.res[b].Dist
			}
			return out.res[a].Traj.ID < out.res[b].Traj.ID
		})
	} else {
		kb := backend.NewKBest(sq.K)
		for _, rs := range per {
			for _, r := range rs {
				kb.Offer(r.Traj, r.Dist)
			}
		}
		out.res = kb.Results()
	}
	tr.end(s)
	return out, nil
}

func neighborsJSON(rs []backend.Result) []byte {
	b, _ := json.Marshal(server.ToWireAnswer(server.Answer{Results: rs}, false).Results)
	return b
}

// traceResult is what the traced run adds to the run record.
type traceResult struct {
	metrics    map[string]float64
	mismatches int // mirror answers that differ from Engine.Search's
	replayed   int
	// counterMismatches counts replayed queries whose deterministic work
	// counters differ between the mirror and the engine.
	counterMismatches, counterChecks int
	selfMS                           map[string]float64
	spans                            []span
}

// traceOps is the part of the stream the traced run replays: the first
// traceRounds rounds of every phase, which every untraced run sends.
func traceOps(in *inputs) []*op {
	var out []*op
	for _, o := range in.open {
		if o.round < traceRounds {
			out = append(out, o)
		}
	}
	return out
}

// runTrace replays in's stream through the layers and returns the
// per-layer metrics.
func runTrace(in *inputs, dir string) (*traceResult, error) {
	m, buildS, err := buildMirror(in.db)
	if err != nil {
		return nil, fmt.Errorf("mirror build: %w", err)
	}
	specs, err := metrics.Specs([]string{trajtree.MetricName}, in.db, metrics.Config{Tree: serveTreeOptions})
	if err != nil {
		return nil, err
	}
	eng, err := server.NewMultiEngineFromDB(in.db, specs, server.Options{Shards: serveShards, Prefilter: true})
	if err != nil {
		return nil, fmt.Errorf("engine build: %w", err)
	}
	defer eng.Close()

	tr := &tracer{t0: time.Now()}
	res := &traceResult{metrics: map[string]float64{"trajtree.build_s": buildS}}
	var (
		decodeUS, encodeUS, lbUS []float64
		edwpNS, edwpCells        float64
		subNS, subCells          float64
		knnN                     float64
		knnSt                    backend.Stats
		preN, cands, skipped     float64
		candRecall               []float64
		engineMS                 = map[opKind][]float64{}
	)
	ctx := context.Background()
	replay := traceOps(in)
	for i, o := range replay {
		if !o.kind.search() {
			continue
		}
		root := tr.begin("request", i, -1)
		s := tr.begin("http.decode", i, root)
		var req server.SearchRequest
		dec := json.NewDecoder(bytes.NewReader(o.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil || req.QueryTraj == nil {
			return nil, fmt.Errorf("decode op %d: %v", i, err)
		}
		q, err := req.QueryTraj.ToTrajectory()
		if err != nil {
			return nil, fmt.Errorf("op %d query: %w", i, err)
		}
		tr.end(s)
		decodeUS = append(decodeUS, tr.us(s))

		// The engine reports its own work counters for the query; the
		// trajtree counters below are those, from the program's path.
		sq := req.Query
		sq.WithStats = true
		s = tr.begin("engine.search", i, root)
		ans, err := eng.Search(ctx, q, sq)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("engine op %d: %w", i, err)
		}
		engineMS[o.kind] = append(engineMS[o.kind], tr.ms(s))

		s = tr.begin("mirror", i, root)
		mo, err := m.search(tr, i, s, q, req.Query)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("mirror op %d: %w", i, err)
		}
		res.replayed++
		if !bytes.Equal(neighborsJSON(ans.Results), neighborsJSON(mo.res)) {
			res.mismatches++
		}
		// Where the work is deterministic the mirror must also have done
		// the engine's work: a range search has no shared bound, and the
		// sketch admits the same candidates whatever the bound.
		switch {
		case o.kind == opRange:
			res.counterChecks++
			if mo.st != ans.Stats {
				res.counterMismatches++
			}
		case o.kind == opPre:
			res.counterChecks++
			if mo.st.PrefilterCandidates != ans.Stats.PrefilterCandidates ||
				mo.st.PrefilterSkipped != ans.Stats.PrefilterSkipped {
				res.counterMismatches++
			}
		}

		s = tr.begin("http.encode", i, root)
		if _, err := json.Marshal(server.SearchResponse{WireAnswer: server.ToWireAnswer(ans, false)}); err != nil {
			return nil, err
		}
		tr.end(s)
		encodeUS = append(encodeUS, tr.us(s))
		tr.end(root)

		// Kernel probes run outside the request span: the exact kernel on
		// the answer members, and the node lower bound against a leaf-sized
		// box summary of them.
		switch o.kind {
		case opKNN:
			knnN++
			knnSt.Add(ans.Stats)
			members := make([]*traj.Trajectory, len(mo.res))
			for j, r := range mo.res {
				members[j] = r.Traj
				t0 := time.Now()
				core.AvgDistance(q, r.Traj)
				edwpNS += float64(time.Since(t0))
				edwpCells += float64(len(q.Points) * len(r.Traj.Points))
			}
			if len(members) > 0 {
				seq := tbox.Build(members, serveTreeOptions.WithDefaults().MaxBoxes)
				t0 := time.Now()
				core.LowerBoundBounded(q, seq, math.Inf(1))
				lbUS = append(lbUS, float64(time.Since(t0))/1e3)
			}
		case opSub:
			for _, r := range mo.res {
				t0 := time.Now()
				core.SubDistance(q, r.Traj)
				subNS += float64(time.Since(t0))
				subCells += float64(len(q.Points) * len(r.Traj.Points))
			}
		case opPre:
			preN++
			cands += float64(ans.Stats.PrefilterCandidates)
			skipped += float64(ans.Stats.PrefilterSkipped)
			if len(candRecall) < 32 {
				exact, err := m.search(&tracer{t0: time.Now()}, i, -1, q, server.Query{Kind: server.KindKNN, K: kNN})
				if err != nil {
					return nil, err
				}
				admitted := map[int]bool{}
				for _, id := range mo.cands {
					admitted[id] = true
				}
				hit := 0
				for _, r := range exact.res {
					if admitted[r.Traj.ID] {
						hit++
					}
				}
				candRecall = append(candRecall, ratio(float64(hit), float64(len(exact.res))))
			}
		}
	}
	mt := res.metrics
	mt["http.decode_us"] = median(decodeUS)
	mt["http.encode_us"] = median(encodeUS)
	mt["engine.search_knn_ms"] = median(engineMS[opKNN])
	mt["engine.search_range_ms"] = median(engineMS[opRange])
	mt["engine.search_sub_ms"] = median(engineMS[opSub])
	mt["engine.search_prefilter_ms"] = median(engineMS[opPre])
	mt["engine.merge_us"] = 1e3 * median(values(tr.perRequest("engine.merge")))
	mt["sketch.candidates_us"] = 1e3 * median(values(tr.perRequest("sketch.candidates")))
	mt["sketch.cands_per_query"] = ratio(cands, preN)
	mt["sketch.skip_ratio"] = ratio(skipped, cands+skipped)
	mt["sketch.cand_recall"] = mean(candRecall)
	mt["trajtree.knn_ms"] = median(values(tr.perRequest("trajtree.knn")))
	mt["trajtree.range_ms"] = median(values(tr.perRequest("trajtree.range")))
	mt["trajtree.sub_ms"] = median(values(tr.perRequest("trajtree.sub")))
	mt["trajtree.verify_ms"] = median(values(tr.perRequest("trajtree.verify")))
	mt["trajtree.nodes_visited"] = ratio(float64(knnSt.NodesVisited), knnN)
	mt["trajtree.prune_ratio"] = ratio(float64(knnSt.NodesPruned), float64(knnSt.NodesPruned+knnSt.NodesVisited))
	mt["trajtree.lb_calls"] = ratio(float64(knnSt.LowerBoundCalls), knnN)
	mt["trajtree.dist_calls"] = ratio(float64(knnSt.DistanceCalls), knnN)
	full := float64(knnSt.DistanceCalls - knnSt.EarlyAbandons)
	mt["trajtree.full_evals"] = ratio(full, knnN)
	mt["trajtree.abandon_ratio"] = ratio(float64(knnSt.EarlyAbandons), float64(knnSt.DistanceCalls))
	mt["trajtree.useful_ratio"] = ratio(kNN*knnN, full)
	mt["core.edwp_ns_per_cell"] = ratio(edwpNS, edwpCells)
	mt["core.sub_ns_per_cell"] = ratio(subNS, subCells)
	mt["core.lb_us"] = median(lbUS)

	if err := traceStream(in, replay, eng, tr, mt); err != nil {
		return nil, err
	}
	if err := traceWAL(in, replay, filepath.Join(dir, "trace-wal"), tr, mt); err != nil {
		return nil, err
	}
	if err := traceSnapshot(eng, filepath.Join(dir, "trace-snap"), tr, mt); err != nil {
		return nil, err
	}
	res.selfMS = tr.selfTimes()
	res.spans = tr.spans
	return res, nil
}

// appendReq decodes one append or seal op of the stream.
func appendReq(o *op) (server.AppendRequest, []traj.Point, error) {
	var r server.AppendRequest
	if err := json.Unmarshal(o.body, &r); err != nil {
		return r, nil, err
	}
	pts := make([]traj.Point, len(r.Points))
	for i, p := range r.Points {
		pts[i] = traj.P(p[0], p[1], p[2])
	}
	return r, pts, nil
}

// traceStream registers the workload's watches and replays its appends
// and seals, in stream order, against the engine.
func traceStream(in *inputs, replay []*op, eng *server.Engine, tr *tracer, mt map[string]float64) error {
	for _, body := range in.watches {
		var w server.WatchRequest
		if err := json.Unmarshal(body, &w); err != nil {
			return err
		}
		pat, err := w.Pattern.ToTrajectory()
		if err != nil {
			return err
		}
		if _, err := eng.Watch(pat, w.Metric, w.Threshold, w.K, w.Exact); err != nil {
			return fmt.Errorf("watch: %w", err)
		}
	}
	var appendUS, sealMS, live []float64
	for i, o := range replay {
		switch o.kind {
		case opAppend:
			r, pts, err := appendReq(o)
			if err != nil {
				return err
			}
			s := tr.begin("stream.append", i, -1)
			_, err = eng.Append(r.ID, r.Label, pts)
			tr.end(s)
			if err != nil {
				return fmt.Errorf("append op %d: %w", i, err)
			}
			appendUS = append(appendUS, tr.us(s))
			live = append(live, float64(eng.LiveTracks()))
		case opSeal:
			var r server.SealRequest
			if err := json.Unmarshal(o.body, &r); err != nil {
				return err
			}
			s := tr.begin("stream.seal", i, -1)
			err := eng.Seal(r.ID)
			tr.end(s)
			if err != nil {
				return fmt.Errorf("seal op %d: %w", i, err)
			}
			sealMS = append(sealMS, tr.ms(s))
		}
	}
	st := eng.Stats().Stream
	mt["stream.append_us"] = median(appendUS)
	mt["stream.seal_ms"] = median(sealMS)
	mt["engine.live_tracks"] = mean(live)
	if st != nil {
		mt["stream.watch_evals_per_append"] = ratio(float64(st.WatchEvals), float64(st.Appends))
		mt["stream.gate_skip_ratio"] = ratio(float64(st.WatchGateSkips), float64(st.WatchGateSkips+st.WatchEvals))
	}
	return nil
}

// traceWAL logs the stream's appends and seals to a standalone log under
// fsync-per-commit, then times a replay of it.
func traceWAL(in *inputs, replay []*op, dir string, tr *tracer, mt map[string]float64) error {
	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	if err := l.Replay(func(wal.Record) error { return nil }); err != nil {
		l.Close()
		return err
	}
	var commitUS []float64
	points, appends := 0, 0
	for i, o := range replay {
		var rec wal.Record
		switch o.kind {
		case opAppend:
			r, pts, err := appendReq(o)
			if err != nil {
				l.Close()
				return err
			}
			rec = wal.AppendPoints(r.ID, r.Label, o.off, pts)
			points += len(pts)
			appends++
		case opSeal:
			rec = wal.Seal(in.tracks[o.track].id)
		default:
			continue
		}
		s := tr.begin("wal.commit", i, -1)
		lsn, err := l.Append(rec)
		if err == nil {
			err = l.Commit(lsn)
		}
		tr.end(s)
		if err != nil {
			l.Close()
			return err
		}
		if o.kind == opAppend {
			commitUS = append(commitUS, tr.us(s))
		}
	}
	st := l.Stats()
	if err := l.Close(); err != nil {
		return err
	}
	mt["wal.commit_us"] = median(commitUS)
	mt["wal.syncs_per_append"] = ratio(float64(st.Syncs), float64(st.Appends))
	mt["wal.bytes_per_point"] = ratio(float64(st.SizeBytes), float64(points))

	s := tr.begin("wal.replay", -1, -1)
	l, err = wal.Open(wal.Options{Dir: dir, Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	n := 0
	err = l.Replay(func(wal.Record) error { n++; return nil })
	tr.end(s)
	l.Close()
	if err != nil {
		return err
	}
	if n != appends+countKind(replay, opSeal) {
		return fmt.Errorf("wal replay: %d records, want %d", n, appends+countKind(replay, opSeal))
	}
	mt["wal.replay_ms"] = tr.ms(s)
	return nil
}

func countKind(ops []*op, k opKind) int {
	n := 0
	for _, o := range ops {
		if o.kind == k {
			n++
		}
	}
	return n
}

// traceSnapshot saves the engine's snapshot, sizes it by file kind, and
// times an mmap load and a heap decode of its arena files.
func traceSnapshot(eng *server.Engine, dir string, tr *tracer, mt map[string]float64) error {
	s := tr.begin("snapshot.save", -1, -1)
	err := eng.SaveSnapshot(dir)
	tr.end(s)
	if err != nil {
		return err
	}
	mt["snapshot.save_ms"] = tr.ms(s)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var treeB, arenaB, decodeMS float64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return err
		}
		switch {
		case strings.HasSuffix(e.Name(), ".tree"):
			treeB += float64(fi.Size())
		case strings.HasSuffix(e.Name(), ".arena"):
			arenaB += float64(fi.Size())
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				return err
			}
			d := tr.begin("arena.decode", -1, -1)
			_, err = arena.Decode(b)
			tr.end(d)
			if err != nil {
				return fmt.Errorf("arena decode %s: %w", e.Name(), err)
			}
			decodeMS += tr.ms(d)
		}
	}
	mt["snapshot.tree_bytes"] = treeB
	mt["snapshot.arena_bytes"] = arenaB
	mt["arena.decode_ms"] = decodeMS

	s = tr.begin("snapshot.load", -1, -1)
	e2, err := server.LoadSnapshot(dir, server.Options{Mmap: true})
	tr.end(s)
	if err != nil {
		return err
	}
	mt["snapshot.load_ms"] = tr.ms(s)
	return e2.Close()
}
