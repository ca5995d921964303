package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"trajmatch/internal/server"
	"trajmatch/internal/traj"
)

// ackedTrack is what the client was promised about one live track.
type ackedTrack struct {
	length int  // highest acknowledged length
	sealed bool // the seal was acknowledged
}

// ackedState folds every acknowledged append and seal, open and closed
// loop, into per-track promises.
func ackedState(in *inputs, outs []outcome, capOuts [][]outcome) []ackedTrack {
	st := make([]ackedTrack, len(in.tracks))
	fold := func(o *op, out outcome) {
		if !out.ok || o.track < 0 {
			return
		}
		switch o.kind {
		case opAppend:
			st[o.track].length = max(st[o.track].length, out.length)
		case opSeal:
			st[o.track].sealed = true
		}
	}
	for i, o := range in.open {
		fold(o, outs[i])
	}
	for w := range capOuts {
		for i, out := range capOuts[w] {
			fold(in.capOps[w][i], out)
		}
	}
	return st
}

// sealedPoints counts the points of every acknowledged sealed track:
// user points the index holds beside the corpus.
func sealedPoints(in *inputs, outs []outcome, capOuts [][]outcome) int {
	n := 0
	for ti, a := range ackedState(in, outs, capOuts) {
		if a.sealed {
			n += len(in.tracks[ti].src.Points)
		}
	}
	return n
}

// post sends one request body and decodes a 200 reply into v.
func (r *runner) post(ctx context.Context, base, path string, body []byte, v any) bool {
	o := &op{kind: opControl, path: path, body: body, track: -1}
	var out outcome
	do(ctx, r.client, base, o, &out)
	if !out.ok {
		return false
	}
	return v == nil || json.Unmarshal(out.raw, v) == nil
}

// recoveryProbe is one acknowledged track checked after recovery.
type recoveryProbe struct {
	ti   int
	self bool   // body is a k=1 search that must find the track at distance 0
	body []byte // that search, or the append of the track's next point
}

// recoveredState is what the recovered server must hold: the corpus and
// every track as far as it was acknowledged, a part trip with its probe
// point. Each track with anything acknowledged gets a probe. A whole
// trip must match itself at distance 0: a sealed one, or one whose every
// point was acknowledged but whose seal was never sent because its phase
// ended first, which stays live with all its points. A part trip takes
// the append of its next point.
func recoveredState(in *inputs, acked []ackedTrack) (state []*traj.Trajectory, probes []recoveryProbe, sealedPts int) {
	state = append(state, in.db...)
	for ti, a := range acked {
		t := in.tracks[ti]
		switch {
		case a.length == 0:
		case a.sealed || a.length == len(t.src.Points):
			if a.sealed {
				sealedPts += len(t.src.Points)
			}
			state = append(state, &traj.Trajectory{ID: t.id, Label: 1, Points: t.src.Points})
			w := wire(queryIDBase-1-ti, t.src.Points)
			body, _ := json.Marshal(server.SearchRequest{Query: server.Query{Kind: server.KindKNN, K: 1}, QueryTraj: &w})
			probes = append(probes, recoveryProbe{ti, true, body})
		default:
			pts := t.src.Points[:a.length+1]
			state = append(state, &traj.Trajectory{ID: t.id, Label: 1, Points: pts})
			body, _ := json.Marshal(server.AppendRequest{ID: t.id, Label: 1, Points: wire(t.id, pts[a.length:]).Points})
			probes = append(probes, recoveryProbe{ti, false, body})
		}
	}
	return state, probes, sealedPts
}

// verifyRecovery checks, after kill -9 and restart, that every
// acknowledged write survived, by the probes of recoveredState. It then
// re-asks open-loop queries against the recovered state and compares
// them with brute force over exactly what was acknowledged, returning
// the prefiltered queries' recall and the sealed user points.
func (r *runner) verifyRecovery(ctx context.Context, p *proc, acked []ackedTrack) ([]float64, int, error) {
	state, probes, sealedPts := recoveredState(r.in, acked)
	var mu sync.Mutex
	parallel(len(probes), func(i int) {
		pr := probes[i]
		t, a := r.in.tracks[pr.ti], acked[pr.ti]
		ok := false
		if pr.self {
			var resp server.SearchResponse
			ok = r.post(ctx, p.base, "/v1/search", pr.body, &resp) &&
				len(resp.Results) == 1 && resp.Results[0].ID == t.id && resp.Results[0].Dist == 0
		} else {
			var resp server.AppendResponse
			ok = r.post(ctx, p.base, "/v1/append", pr.body, &resp) && resp.Offset == a.length
		}
		mu.Lock()
		r.attempted++
		name := "durability.live"
		if a.sealed {
			name = "durability.sealed"
		}
		r.check(name, ok)
		mu.Unlock()
	})

	// Re-ask the stream's first exact and prefiltered queries.
	var cs []check
	var ask []*op
	nk, np := 0, 0
	for _, o := range r.in.open {
		switch {
		case o.kind == opKNN && nk < recoveryKNN:
			nk++
			ask = append(ask, o)
		case o.kind == opPre && np < recoveryPre:
			np++
			ask = append(ask, o)
		}
	}
	for _, o := range ask {
		var out outcome
		do(ctx, r.client, p.base, o, &out)
		r.count(out.ok)
		got, ok := decodeNeighbors(out.results)
		if !out.ok || !ok {
			continue
		}
		cs = append(cs, check{kind: o.kind, q: r.in.queries[o.query], got: got, db: state})
	}
	var recall []float64
	for i, v := range runChecks(cs) {
		r.check("recovered."+cs[i].kind.String(), v.ok)
		if cs[i].kind == opPre {
			recall = append(recall, v.recall)
		}
	}
	if len(recall) == 0 {
		return nil, 0, fmt.Errorf("no prefiltered query answered after recovery")
	}
	return recall, sealedPts, nil
}

// Post-recovery re-asks on ingest-restart.
const (
	recoveryKNN = 6
	recoveryPre = 16
)
