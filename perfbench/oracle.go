package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"sync"
	"time"

	"trajmatch/internal/core"
	"trajmatch/internal/server"
	"trajmatch/internal/traj"
)

// The oracle recomputes answers by brute force with the core kernels —
// EDwPavg for k-NN and range (the server's default distance), EDwPsub
// for sub-trajectory k-NN — and compares (distance, ID) lists exactly.

type scored struct {
	id   int
	dist float64
}

func scoreAll(db []*traj.Trajectory, q *traj.Trajectory, dist func(a, b *traj.Trajectory) float64) []scored {
	out := make([]scored, len(db))
	for i, t := range db {
		out[i] = scored{t.ID, dist(q, t)}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].dist != out[j].dist {
			return out[i].dist < out[j].dist
		}
		return out[i].id < out[j].id
	})
	return out
}

func bruteKNN(db []*traj.Trajectory, q *traj.Trajectory, k int, dist func(a, b *traj.Trajectory) float64) []scored {
	all := scoreAll(db, q, dist)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func bruteRange(db []*traj.Trajectory, q *traj.Trajectory, r float64) []scored {
	all := scoreAll(db, q, core.AvgDistance)
	n := sort.Search(len(all), func(i int) bool { return all[i].dist > r })
	return all[:n]
}

func decodeNeighbors(raw json.RawMessage) ([]server.Neighbor, bool) {
	var ns []server.Neighbor
	if err := json.Unmarshal(raw, &ns); err != nil {
		return nil, false
	}
	return ns, true
}

// sameAnswer reports whether got lists exactly want's (ID, distance)
// pairs in order.
func sameAnswer(got []server.Neighbor, want []scored) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].id || got[i].Dist != want[i].dist {
			return false
		}
	}
	return true
}

// recallAt is tie-aware recall@k: the share of the exact answer's k
// slots the approximate answer fills at or under the exact k-th
// distance, so a tie swapped for an equally distant member is no miss.
func recallAt(got []server.Neighbor, exact []scored) float64 {
	if len(exact) == 0 {
		return 1
	}
	kth := exact[len(exact)-1].dist
	hit := 0
	for _, r := range got {
		if r.Dist <= kth {
			hit++
		}
	}
	if hit > len(exact) {
		hit = len(exact)
	}
	return float64(hit) / float64(len(exact))
}

// parallel runs fn(0..n-1) on conns goroutines.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int, n) // holds every index up front
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// oracleSample sizes, per workload: how many answers of each kind are
// recomputed by brute force.
type oracleSample struct{ knn, rng, sub, pre int }

// check is one brute-force comparison to run.
type check struct {
	kind opKind
	q    *traj.Trajectory
	got  []server.Neighbor
	db   []*traj.Trajectory
}

// checkResult is the verdict of one check; recall is set for prefilter.
type checkResult struct {
	ok     bool
	recall float64
}

func runChecks(cs []check) []checkResult {
	out := make([]checkResult, len(cs))
	parallel(len(cs), func(i int) {
		c := cs[i]
		switch c.kind {
		case opKNN:
			out[i].ok = sameAnswer(c.got, bruteKNN(c.db, c.q, kNN, core.AvgDistance))
		case opRange:
			out[i].ok = sameAnswer(c.got, bruteRange(c.db, c.q, radius))
		case opSub:
			out[i].ok = sameAnswer(c.got, bruteKNN(c.db, c.q, kNN, core.SubDistance))
		case opPre:
			// A prefiltered answer may miss neighbours (that is recall),
			// but every distance it reports must be exact and its order
			// must be (distance, ID).
			exact := bruteKNN(c.db, c.q, kNN, core.AvgDistance)
			out[i].recall = recallAt(c.got, exact)
			out[i].ok = len(c.got) == len(exact)
			byID := map[int]*traj.Trajectory{}
			for _, t := range c.db {
				byID[t.ID] = t
			}
			for j, n := range c.got {
				t := byID[n.ID]
				if t == nil || core.AvgDistance(c.q, t) != n.Dist {
					out[i].ok = false
				}
				if j > 0 && (c.got[j-1].Dist > n.Dist || (c.got[j-1].Dist == n.Dist && c.got[j-1].ID > n.ID)) {
					out[i].ok = false
				}
			}
		}
	})
	return out
}

// firstMutation is when the first mutating request of the open-loop
// stream was sent; answers completed before it were computed against
// the booted corpus alone, so brute force over that corpus is exact.
func firstMutation(ops []*op, outs []outcome) time.Time {
	var first time.Time
	for i, o := range ops {
		if o.kind.search() || !outs[i].sent {
			continue
		}
		if first.IsZero() || outs[i].sentAt.Before(first) {
			first = outs[i].sentAt
		}
	}
	if first.IsZero() {
		first = time.Now()
	}
	return first
}

// sampleChecks draws the seeded oracle sample from the open-loop answers
// completed before the first mutation.
func sampleChecks(in *inputs, outs []outcome, n oracleSample, seed int64) []check {
	cut := firstMutation(in.open, outs)
	byKind := map[opKind][]int{}
	for i, o := range in.open {
		if o.kind.search() && outs[i].ok && outs[i].doneAt.Before(cut) {
			byKind[o.kind] = append(byKind[o.kind], i)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var cs []check
	for _, kn := range []struct {
		k opKind
		n int
	}{{opKNN, n.knn}, {opRange, n.rng}, {opSub, n.sub}, {opPre, n.pre}} {
		idx := byKind[kn.k]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		if len(idx) > kn.n {
			idx = idx[:kn.n]
		}
		for _, i := range idx {
			got, ok := decodeNeighbors(outs[i].results)
			if !ok {
				continue
			}
			cs = append(cs, check{kind: kn.k, q: in.queries[in.open[i].query], got: got, db: in.db})
		}
	}
	return cs
}
