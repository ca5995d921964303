package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trajmatch/internal/server"
)

// conns is the generator's connection and worker count: two, or the
// machine's CPU count when that is smaller (main sets it).
var conns = 2

// outcome is the client's view of one request.
type outcome struct {
	sent    bool
	ok      bool
	lateMS  float64 // generator lateness: dispatch time minus scheduled time
	latMS   float64 // open loop: from scheduled send time; closed loop: from send
	doneAt  time.Time
	sentAt  time.Time
	raw     []byte          // the whole 200 reply
	results json.RawMessage // search answers, as the server encoded them
	cached  bool
	length  int // append: acked track length
}

// searchReply is the subset of the search response the checks need;
// Results stays raw so cache hits can be compared byte for byte.
type searchReply struct {
	Results   json.RawMessage `json:"results"`
	Cached    bool            `json:"cached"`
	Truncated bool            `json:"truncated"`
	Degraded  bool            `json:"degraded"`
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// do sends one op and records whether it succeeded: a 200 whose reply
// keeps the wire-level promises (not truncated or degraded, the append
// at its expected offset). Answer contents are left to the oracle.
func do(ctx context.Context, c *http.Client, base string, o *op, out *outcome) {
	out.sent = true
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return
	}
	resp, err := c.Do(req)
	if err != nil {
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return
	}
	out.raw = body
	switch o.kind {
	case opKNN, opRange, opSub, opPre:
		var r searchReply
		if json.Unmarshal(body, &r) != nil || r.Truncated || r.Degraded || r.Results == nil {
			return
		}
		out.results, out.cached = r.Results, r.Cached
	case opAppend:
		var r server.AppendResponse
		if json.Unmarshal(body, &r) != nil || r.Offset != o.off {
			return
		}
		out.length = r.Length
	}
	out.ok = true
}

// trackGate orders the appends and the seal of each live track: an op
// waits until every earlier op of its track has completed, so two
// connections never race one track's deltas.
type trackGate struct {
	mu   sync.Mutex
	cond *sync.Cond
	done map[int]int
}

func newTrackGate() *trackGate {
	g := &trackGate{done: map[int]int{}}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *trackGate) wait(o *op) {
	g.mu.Lock()
	for g.done[o.track] != o.seq {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

func (g *trackGate) finish(o *op) {
	g.mu.Lock()
	g.done[o.track]++
	g.mu.Unlock()
	g.cond.Broadcast()
}

// stealLimit is the share of the machine's CPU time the hypervisor may
// take during a round (or a boot, or a capacity window) before the
// benchmark treats that round's numbers as the neighbours' rather than
// the program's: on a shared VM, latency follows host steal closely.
const stealLimit = 0.01

// cpuTimes reads the aggregate busy-or-idle and steal jiffies from
// /proc/stat; both are zero where it cannot be read.
func cpuTimes() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:9] { // user … steal; guest time is already in user
		v, _ := strconv.ParseFloat(s, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealMeter measures the host's steal share between two reads.
type stealMeter struct{ total, steal float64 }

func newStealMeter() *stealMeter {
	m := &stealMeter{}
	m.total, m.steal = cpuTimes()
	return m
}

// lap returns the steal share since the last read and restarts.
func (m *stealMeter) lap() float64 {
	t, s := cpuTimes()
	f := ratio(s-m.steal, t-m.total)
	m.total, m.steal = t, s
	return f
}

// leastStolen marks the need entries of steal with the smallest share
// (earliest first among equals).
func leastStolen(steal []float64, need int) []bool {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	kept := make([]bool, len(steal))
	for _, i := range idx[:min(need, len(idx))] {
		kept[i] = true
	}
	return kept
}

// spoiled reports whether the need least-stolen entries of steal
// include one above stealLimit, or there are fewer than need.
func spoiled(steal []float64, need int) bool {
	if len(steal) < need {
		return true
	}
	for i, k := range leastStolen(steal, need) {
		if k && steal[i] > stealLimit {
			return true
		}
	}
	return false
}

// meanKept is the mean of steal over the kept entries.
func meanKept(steal []float64, kept []bool) float64 {
	var s, n float64
	for i, k := range kept {
		if k {
			s += steal[i]
			n++
		}
	}
	return ratio(s, n)
}

// phaseRun is what one open-loop phase measured.
type phaseRun struct {
	steal []float64 // per round run: the host's steal share
	kept  []bool    // per round run: its latencies are reported
}

// runPhase replays one phase open loop: a dispatcher releases each op at
// its scheduled time into a queue served by conns workers, and every
// latency is measured from the scheduled time, so a stall is charged to
// every request it delays. Every round of the phase runs and has its
// host steal measured; the ph.need least-stolen rounds are the ones
// reported, and every op sent is checked.
func runPhase(ctx context.Context, c *http.Client, base string, ph phase, outs []outcome) phaseRun {
	ops := ph.ops
	var pr phaseRun
	if len(ops) == 0 {
		return pr
	}
	rounds := ops[len(ops)-1].round + 1
	queue := make(chan int, len(ops)) // sized to the schedule: the dispatcher never blocks
	gate := newTrackGate()
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := ops[i]
				if o.track >= 0 {
					gate.wait(o)
				}
				outs[i].sentAt = time.Now()
				do(ctx, c, base, o, &outs[i])
				outs[i].doneAt = time.Now()
				outs[i].latMS = msBetween(start.Add(o.at), outs[i].doneAt)
				if o.track >= 0 {
					gate.finish(o)
				}
			}
		}()
	}
	time.Sleep(time.Until(start))
	meter := newStealMeter()
	i := 0
	for r := 0; r < rounds; r++ {
		// <= rather than ==: a seal scheduled a microsecond after its
		// append may sort just past the end of its round.
		for ; i < len(ops) && ops[i].round <= r; i++ {
			due := start.Add(ops[i].at)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			outs[i].lateMS = msBetween(due, time.Now())
			queue <- i
		}
		time.Sleep(time.Until(start.Add(time.Duration(r+1) * ph.roundLen)))
		pr.steal = append(pr.steal, meter.lap())
	}
	close(queue)
	wg.Wait()
	pr.kept = leastStolen(pr.steal, ph.need)
	return pr
}

// runClosed drives each connection through its own list back to back,
// in capWindows windows of capWindow each. It returns the outcomes, the
// median over the least-stolen half of the windows of each window's
// completions per second, and each window's steal with the ones
// reported marked.
func runClosed(ctx context.Context, c *http.Client, base string, lists [2][]*op) ([][]outcome, float64, []float64, []bool, error) {
	const window = capWindow
	outs := make([][]outcome, conns)
	var stop atomic.Bool
	var dry atomic.Int32
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		outs[w] = make([]outcome, len(lists[w]))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, o := range lists[w] {
				if stop.Load() {
					return
				}
				out := &outs[w][i]
				out.sentAt = time.Now()
				do(ctx, c, base, o, out)
				out.doneAt = time.Now()
				out.latMS = msBetween(out.sentAt, out.doneAt)
			}
			dry.Add(1)
		}(w)
	}
	meter := newStealMeter()
	var steal []float64
	for len(steal) < capWindows {
		time.Sleep(time.Until(start.Add(time.Duration(len(steal)+1) * window)))
		steal = append(steal, meter.lap())
	}
	stop.Store(true)
	wg.Wait()
	if dry.Load() > 0 {
		return nil, 0, nil, nil, fmt.Errorf("a capacity list ran dry before the phase ended")
	}
	// Each window counts its completions after the first, over the time
	// from its first completion to its last.
	first := make([]time.Time, len(steal))
	last := make([]time.Time, len(steal))
	done := make([]float64, len(steal))
	for w := range outs {
		for _, o := range outs[w] {
			i := int(o.doneAt.Sub(start) / window)
			if !o.ok || i >= len(done) {
				continue
			}
			if done[i] == 0 || o.doneAt.Before(first[i]) {
				first[i] = o.doneAt
			}
			if o.doneAt.After(last[i]) {
				last[i] = o.doneAt
			}
			done[i]++
		}
	}
	kept := leastStolen(steal, capWindows/2)
	var rates []float64
	for i, k := range kept {
		if k {
			rates = append(rates, ratio(done[i]-1, last[i].Sub(first[i]).Seconds()))
		}
	}
	return outs, median(rates), steal, kept, nil
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }
