package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"time"

	"trajmatch/internal/dataio"
	"trajmatch/internal/server"
	"trajmatch/internal/synth"
	"trajmatch/internal/traj"
)

// spec is one workload: the corpus, the trajserve flags, and the
// open-loop traffic of one round. A run's timed phases are made of
// rounds of equal length (see runPhase); every round carries the same
// count of each kind, so every run carries the same counts and the tail
// rule always picks the same percentile, whatever --seconds is. Every
// workload carries every operation kind, so every end-to-end metric
// exists on every workload; the counts decide which layers dominate.
// Why each workload exists is recorded in README.md.
type spec struct {
	name   string
	corpus int      // sealed trips the server boots with
	flags  []string // trajserve flags besides -db, -addr and -snapshot

	// Open-loop requests per round, by kind.
	knn, rng, sub, pre, appends int

	// appendRounds, when positive, moves the appends out of the read
	// rounds into a phase of this many rounds after the reads, so every
	// read of a serving workload sees the booted corpus and can be
	// checked by brute force.
	appendRounds int

	tracks  int // concurrently live tracks the appends feed
	watches int // threshold watches registered before the run
	reasks  int // untimed exact k-NN repeats, answered from the result cache

	crash bool // snapshot mid-run, kill -9, recover (setup_s = recovery)

	oracle oracleSample // open-loop answers recomputed by brute force
}

const (
	// corpusSeed draws the trips every run's corpus and traffic come
	// from.
	corpusSeed = 1
	kNN        = 10
	radius     = 500.0
	zipfS      = 1.1
	interPct   = 0.5
	// readRounds is the number of rounds of the read phase; a run of
	// --seconds S has rounds of S/readRounds seconds. Every phase reports
	// the least-stolen third of its rounds (see runPhase): host steal
	// comes and goes within seconds, and short rounds let the guard keep
	// the calm ones.
	readRounds = 36
	// Each phase reports 1/keptShare of its rounds.
	keptShare = 3
	// extraRounds is how many more boots may run when host steal spoiled
	// one (see boots).
	extraRounds = 1
	// traceRounds is how many rounds of each phase the traced run
	// replays.
	traceRounds = 12
	// capWindows windows of capWindow make the closed-loop capacity
	// phase; the least-stolen half are reported.
	capWindows = 16
	capWindow  = 500 * time.Millisecond
	// capRounds rounds' worth of the read mix fill the closed-loop lists,
	// enough that no connection runs dry.
	capRounds = 40
	// bootRepeats is how many boots set-up reports the median of.
	bootRepeats = 3
	// snapshotRepeats is how many quiescent snapshots a run times.
	snapshotRepeats = 15
	// warmOps is how many reads of the mix run, untimed, before the
	// open loop, so the first timed requests pay no first-touch costs.
	warmOps = 16
)

// Each read kind with a tail metric gets 27 requests a round, 324 in
// the twelve rounds reported, so the tail rule reports p90 with 32
// samples beyond it; subknn, which has no tail metric, gets 10. On
// exact-mix the append phase runs twelve rounds of 80 and reports four;
// on ingest-restart the appends get 27 a round. Either way 320–324 are
// reported: p90 with 32 beyond. Reads load the server to about a third
// of its capacity: on a shared 2-core machine, queueing would turn
// every slow second of the host into a slow run.
var specs = []spec{
	{
		name: "exact-mix", corpus: 2000, flags: []string{"-shards", strconv.Itoa(serveShards), "-prefilter"},
		knn: 27, rng: 27, sub: 10, pre: 27, appends: 80, appendRounds: 12, tracks: 16, reasks: 64,
		oracle: oracleSample{knn: 12, rng: 6, sub: 3, pre: 16},
	},
	{
		name: "ingest-restart", corpus: 2000,
		flags: []string{"-shards", strconv.Itoa(serveShards), "-prefilter", "-wal-sync", "always", "-mmap"},
		knn:   27, rng: 27, sub: 10, pre: 27, appends: 27,
		tracks: 256, watches: 100, crash: true,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

type opKind int

const (
	opKNN opKind = iota
	opRange
	opSub
	opPre
	opAppend
	opSeal
	opControl // snapshot, watch and probe requests: only the status is checked
)

var kindNames = [...]string{"knn", "range", "subknn", "prefilter", "append", "seal", "control"}

func (k opKind) String() string { return kindNames[k] }

func (k opKind) search() bool { return k <= opPre }

// op is one pre-encoded request of the stream.
type op struct {
	kind  opKind
	phase int           // open-loop phase: 0 the reads, 1 a serving workload's appends
	round int           // round within the phase
	at    time.Duration // scheduled offset from the start of the phase (open loop)
	path  string
	body  []byte
	query int // index into inputs.queries for searches, else -1
	track int // index into inputs.tracks for append/seal, else -1
	seq   int // position of the op within its track
	off   int // expected append offset
	npts  int // points in an append delta
}

// track is one live track: a source trip replayed in deltas of 1–4
// points under its own ID, sealed after its last delta.
type track struct {
	id     int
	src    *traj.Trajectory
	deltas [][]traj.Point
}

// phase is one open-loop phase: its ops sorted by scheduled time, in
// rounds of roundLen, of which the need least-stolen are reported.
type phase struct {
	ops      []*op
	need     int
	roundLen time.Duration
}

// inputs is everything a run derives from its seed.
type inputs struct {
	db      []*traj.Trajectory // the corpus as the server reads it back
	csvPath string
	queries []*traj.Trajectory
	tracks  []*track
	watches [][]byte // POST /v1/watch bodies
	phases  []phase
	open    []*op    // every phase's ops, phase after phase
	capOps  [2][]*op // closed-loop capacity lists, one per connection
	warm    []*op    // untimed reads before the open loop
	reasks  []int    // indices into open of exact k-NN ops asked again, untimed
}

// ID spaces keep queries and live tracks clear of the corpus.
const (
	queryIDBase    = 1_000_000
	trackIDBase    = 2_000_000
	capTrackIDBase = 3_000_000
)

// makeInputs generates the corpus and, from seed, both request streams.
// The corpus is written to dir as CSV and read back, so the oracle sees
// exactly the floats the server parses.
func makeInputs(sp spec, seed int64, seconds float64, dir string) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	readN, appendN := readRounds, sp.appendRounds
	perRound := sp.knn + sp.rng + sp.sub + sp.pre
	pool := (readN+capRounds)*perRound + warmOps + sp.watches +
		2*sp.tracks + (readN+appendN+capRounds)*sp.appends
	// The trips come from one fixed draw; the seed picks the traffic. A
	// corpus drawn per seed builds a different tree each run, and the
	// per-query cost followed it: two seeds differed by 15% in knn_p50_ms,
	// run after run.
	cfg := synth.DefaultTaxi(sp.corpus + pool)
	cfg.Seed = corpusSeed
	all := synth.Taxi(cfg)
	unseen := append([]*traj.Trajectory(nil), all[sp.corpus:]...)
	rng.Shuffle(len(unseen), func(i, j int) { unseen[i], unseen[j] = unseen[j], unseen[i] })
	in := &inputs{csvPath: dir + "/corpus.csv"}
	f, err := os.Create(in.csvPath)
	if err != nil {
		return nil, err
	}
	if err := dataio.WriteCSV(f, all[:sp.corpus]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if f, err = os.Open(in.csvPath); err != nil {
		return nil, err
	}
	in.db, err = dataio.ReadCSV(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	g := &gen{sp: sp, rng: rng, in: in, unseen: unseen}
	for i := 0; i < sp.watches; i++ {
		pat := g.takeUnseen()
		body, _ := json.Marshal(server.WatchRequest{Pattern: wire(-1-i, pat.Points), Threshold: 300})
		in.watches = append(in.watches, body)
	}
	for i := 0; i < warmOps; i++ {
		k := []opKind{opKNN, opRange, opSub, opPre}[i%4]
		in.warm = append(in.warm, g.searchOp(k, g.newQuery(k == opSub)))
	}
	roundLen := time.Duration(seconds / readRounds * float64(time.Second))
	tracks := g.newLiveSet(trackIDBase)
	reads := g.rounds(readN, roundLen, true, sp.appendRounds == 0, tracks)
	if sp.crash {
		reads = append(reads, &op{kind: opControl, round: readRounds / 2, at: readRounds / 2 * roundLen,
			path: "/v1/snapshot", query: -1, track: -1})
	}
	in.addPhase(reads, readN/keptShare, roundLen)
	if appendN > 0 {
		in.addPhase(g.rounds(appendN, roundLen, false, true, tracks), appendN/keptShare, roundLen)
	}
	in.capOps = g.capacityLists()
	// The cache re-asks: exact k-NN ops of the read phase, drawn Zipf, so
	// a few queries repeat often.
	var knnOps []int
	for i, o := range in.open {
		if o.kind == opKNN && o.phase == 0 {
			knnOps = append(knnOps, i)
		}
	}
	if sp.reasks > 0 {
		z := rand.NewZipf(rng, zipfS, 1, uint64(len(knnOps)-1))
		for i := 0; i < sp.reasks; i++ {
			in.reasks = append(in.reasks, knnOps[z.Uint64()])
		}
	}
	if g.next > len(g.unseen) {
		return nil, fmt.Errorf("unseen-trip pool of %d reused (%d drawn)", len(g.unseen), g.next)
	}
	return in, nil
}

func (in *inputs) addPhase(ops []*op, need int, roundLen time.Duration) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	for _, o := range ops {
		o.phase = len(in.phases)
	}
	in.phases = append(in.phases, phase{ops: ops, need: need, roundLen: roundLen})
	in.open = append(in.open, ops...)
}

// gen draws the request stream; all randomness comes from rng.
type gen struct {
	sp     spec
	rng    *rand.Rand
	in     *inputs
	unseen []*traj.Trajectory
	next   int
}

func (g *gen) takeUnseen() *traj.Trajectory {
	t := g.unseen[g.next%len(g.unseen)]
	g.next++
	return t
}

// newQuery adds one unique query: half are corpus members resampled
// with inter-trajectory noise (same shape, inconsistent sampling), half
// are trips the corpus has never seen. The two alternate rather than
// being drawn, so every round of every kind has the same split and a
// run's latencies do not follow how its coin flips fell. sub cuts a
// contiguous third of it for sub-trajectory search.
func (g *gen) newQuery(sub bool) int {
	var src *traj.Trajectory
	if len(g.in.queries)%2 == 0 {
		m := g.in.db[g.rng.Intn(len(g.in.db))]
		src = synth.Inter([]*traj.Trajectory{m}, interPct, g.rng.Int63())[0]
	} else {
		src = g.takeUnseen()
	}
	pts := src.Points
	if sub && len(pts) > 4 {
		n := len(pts) / 3
		if n < 3 {
			n = 3
		}
		a := g.rng.Intn(len(pts) - n + 1)
		pts = pts[a : a+n]
	}
	q := &traj.Trajectory{ID: queryIDBase + len(g.in.queries), Points: append([]traj.Point(nil), pts...)}
	g.in.queries = append(g.in.queries, q)
	return len(g.in.queries) - 1
}

func wire(id int, pts []traj.Point) server.WireTrajectory {
	w := server.WireTrajectory{ID: id, Points: make([][3]float64, len(pts))}
	for i, p := range pts {
		w.Points[i] = [3]float64{p.X, p.Y, p.T}
	}
	return w
}

func (g *gen) searchOp(kind opKind, qi int) *op {
	q := server.Query{Kind: server.KindKNN, K: kNN}
	switch kind {
	case opRange:
		q = server.Query{Kind: server.KindRange, Radius: radius}
	case opSub:
		q = server.Query{Kind: server.KindSubKNN, K: kNN}
	case opPre:
		q.Prefilter = true
	}
	w := wire(g.in.queries[qi].ID, g.in.queries[qi].Points)
	body, _ := json.Marshal(server.SearchRequest{Query: q, QueryTraj: &w})
	return &op{kind: kind, path: "/v1/search", body: body, query: qi, track: -1}
}

// newTrack starts a live track on an unseen trip, split into deltas.
func (g *gen) newTrack(idBase int) int {
	src := g.takeUnseen()
	t := &track{id: idBase + len(g.in.tracks), src: src}
	for i := 0; i < len(src.Points); {
		n := 1 + g.rng.Intn(4)
		if i+n > len(src.Points) {
			n = len(src.Points) - i
		}
		t.deltas = append(t.deltas, src.Points[i:i+n])
		i += n
	}
	g.in.tracks = append(g.in.tracks, t)
	return len(g.in.tracks) - 1
}

// liveSet is a fixed number of live tracks with their delta cursors; a
// finished track is sealed and replaced by a fresh one, so the live set
// stays the same size.
type liveSet struct {
	idBase int
	slots  []cursor
}

type cursor struct{ ti, pos, off int }

func (g *gen) newLiveSet(idBase int) *liveSet {
	ls := &liveSet{idBase: idBase, slots: make([]cursor, g.sp.tracks)}
	for i := range ls.slots {
		ls.slots[i] = cursor{ti: g.newTrack(idBase)}
	}
	return ls
}

// advance returns the next append of the track in slot (and its seal,
// when the delta is the last one).
func (g *gen) advance(ls *liveSet, slot int) []*op {
	c := &ls.slots[slot]
	t := g.in.tracks[c.ti]
	d := t.deltas[c.pos]
	body, _ := json.Marshal(server.AppendRequest{ID: t.id, Label: 1, Points: wire(t.id, d).Points})
	ops := []*op{{kind: opAppend, path: "/v1/append", body: body, query: -1,
		track: c.ti, seq: c.pos, off: c.off, npts: len(d)}}
	c.off += len(d)
	c.pos++
	if c.pos == len(t.deltas) {
		body, _ := json.Marshal(server.SealRequest{ID: t.id})
		ops = append(ops, &op{kind: opSeal, path: "/v1/seal", body: body, query: -1,
			track: c.ti, seq: c.pos})
		*c = cursor{ti: g.newTrack(ls.idBase)}
	}
	return ops
}

// uniformTimes draws n arrival offsets in [lo, hi): a Poisson process
// conditioned on its count, so every round carries the same number of
// operations of each kind.
func uniformTimes(rng *rand.Rand, n int, lo, hi time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = lo + time.Duration(rng.Float64()*float64(hi-lo))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rounds draws n rounds of roundLen, each with the spec's per-round
// reads when reads is set and its appends into the live set ls when
// appends is set.
func (g *gen) rounds(n int, roundLen time.Duration, reads, appends bool, ls *liveSet) []*op {
	var ops []*op
	for r := 0; r < n; r++ {
		lo, hi := time.Duration(r)*roundLen, time.Duration(r+1)*roundLen
		add := func(o *op, at time.Duration) {
			o.round, o.at = r, at
			ops = append(ops, o)
		}
		if reads {
			for _, kn := range []struct {
				k opKind
				n int
			}{{opKNN, g.sp.knn}, {opRange, g.sp.rng}, {opSub, g.sp.sub}, {opPre, g.sp.pre}} {
				for _, at := range uniformTimes(g.rng, kn.n, lo, hi) {
					add(g.searchOp(kn.k, g.newQuery(kn.k == opSub)), at)
				}
			}
		}
		if appends {
			for _, at := range uniformTimes(g.rng, g.sp.appends, lo, hi) {
				for j, o := range g.advance(ls, g.rng.Intn(len(ls.slots))) {
					add(o, at+time.Duration(j)*time.Microsecond)
				}
			}
		}
	}
	return ops
}

// capacityLists builds the closed-loop mix: capRounds rounds of the
// same kinds in the same proportions, each round shuffled, on fresh
// queries and on tracks owned by one connection each, so a connection's
// appends are ordered by construction. A serving workload's mix holds
// reads only.
func (g *gen) capacityLists() [2][]*op {
	var lists [2][]*op
	var round []opKind
	for _, kn := range []struct {
		k opKind
		n int
	}{{opKNN, g.sp.knn}, {opRange, g.sp.rng}, {opSub, g.sp.sub}, {opPre, g.sp.pre}} {
		for i := 0; i < kn.n; i++ {
			round = append(round, kn.k)
		}
	}
	if g.sp.appendRounds == 0 {
		for i := 0; i < g.sp.appends; i++ {
			round = append(round, opAppend)
		}
	}
	var own [2]*liveSet
	for r := 0; r < capRounds; r++ {
		g.rng.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
		for i, k := range round {
			w := i % 2
			if k != opAppend {
				lists[w] = append(lists[w], g.searchOp(k, g.newQuery(k == opSub)))
				continue
			}
			if own[w] == nil {
				own[w] = &liveSet{idBase: capTrackIDBase, slots: []cursor{{ti: g.newTrack(capTrackIDBase)}}}
			}
			lists[w] = append(lists[w], g.advance(own[w], 0)...)
		}
	}
	return lists
}

func (in *inputs) describe() string {
	n := map[opKind]int{}
	for _, o := range in.open {
		n[o.kind]++
	}
	return fmt.Sprintf("corpus %d, open-loop ops generated %v", len(in.db), n)
}
