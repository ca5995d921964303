package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples a reported tail percentile must
// have strictly above it; a percentile with fewer is noise, not a tail.
// Thirty keeps a run's tail at p90: p95 tails resting on 24–48 samples
// spread past a quarter of their median over ten runs of the same code
// on a shared 2-core host.
const minBeyond = 30

// tailLadder is the percentile ladder the tail rule walks from the top.
var tailLadder = []float64{99, 95, 90}

// summary describes one latency sample set: its median and the highest
// percentile of tailLadder that has at least minBeyond samples beyond it.
type summary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct"` // 0 when no ladder rung qualifies
	Tail    float64 `json:"tail"`
	Beyond  int     `json:"beyond"`
}

// rank returns the 1-based nearest-rank index of the p-th percentile of
// n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// summarize sorts a copy of xs and applies the median and tail rules.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.P50 = s[rank(len(s), 50)-1]
	for _, p := range tailLadder {
		r := rank(len(s), p)
		if len(s)-r >= minBeyond {
			out.TailPct, out.Tail, out.Beyond = p, s[r-1], len(s)-r
			break
		}
	}
	return out
}

// median of xs (nearest rank); NaN for an empty set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return summarize(xs).P50
}

// mean of xs; NaN for an empty set.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank p-th percentile of xs; NaN when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
