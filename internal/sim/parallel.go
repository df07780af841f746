// Conservative-window parallel execution (WithParallelWindow).
//
// The classic conservative-PDES argument: if every message in the simulated
// network takes at least L (the lookahead — here the latency model's
// declared MinLatency; a DelayRule only ever adds delay), then all
// events in one virtual-time window [T, T+L) are causally independent
// across nodes — anything an event at time t generates lands at
// t + L ≥ T + L, beyond the window. The runner therefore partitions the
// nodes into contiguous shards, hands each shard to a worker, and executes
// one window per barrier: every worker files the sends staged for it in
// the previous window, processes its slice of the current window, and
// stages its own sends for the next.
//
// Each shard keeps its pending events in a calendar (calendar.go, the type
// the sequential loop uses too) whose bucket width is the lookahead, so one
// bucket is one window: the shard detaches the window's chain of chunks,
// counting-scatters it by destination straight into sortBuf — (to, at, seq)
// order in two linear passes — recycles the chain, and delivers. Events
// beyond the ring horizon (ringBuckets windows ahead — partition heals and
// Pareto jitter tails) sit in the calendar's overflow heap and drain back as
// the ring advances.
//
// A cross-shard send is staged in a chain of the same chunks, one chain per
// destination shard, drawn from the sending shard's arena. A chain changes
// hands at barriers only: the sender writes it during window k, the receiver
// walks it during k+1 and files every event in its own calendar, the sender
// recycles it to its own freelist during k+2. Nothing is copied or grown in
// between; the message stays in the sender's sent arena, read-only from k+1.
//
// Determinism: event order is the total order (to, at, seq) with per-sender
// sequence numbers (compare), each node draws latency jitter from its own
// seed-derived RNG stream, and every worker observes the same global window
// sequence — so parallel runs are byte-identical across reruns AND across
// worker counts. They are NOT byte-identical to sequential runs, which
// share one RNG stream and one global sequence counter; sequential-vs-
// parallel agreement is the δ-window statistical kind (see
// bench.TestParallelWindowAgreement).
//
// Safety: a latency model whose samples undercut its declared MinLatency
// would schedule an event inside a committed window. The stage path detects
// this (bucket index ≤ the window being processed) and the coordinator
// panics with the offending message's coordinates rather than silently
// diverging.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"delphi/internal/dist"
	"delphi/internal/node"
	"delphi/internal/obs"
)

const (
	// seqShift packs per-sender sequence numbers as seq<<seqShift|sender,
	// bounding parallel runs to 2^seqShift nodes.
	seqShift   = 20
	maxParN    = 1 << seqShift
	maxWorkers = 64
)

// causalityViolation records an event scheduled inside a committed window —
// proof that the effective lookahead was narrower than declared.
type causalityViolation struct {
	at       time.Duration
	bucket   int64
	window   int64
	from, to node.ID
}

func (v *causalityViolation) String() string {
	return fmt.Sprintf("event %d->%d at %v (bucket %d) scheduled inside committed window %d; a message arrived sooner than the latency model's declared MinLatency",
		v.from, v.to, v.at, v.bucket, v.window)
}

// sm64 is a splitmix64 rand.Source64; one per node gives each sender an
// independent, trivially reseedable jitter stream.
type sm64 struct{ s uint64 }

func (s *sm64) Uint64() uint64 {
	s.s += 0x9E3779B97F4A7C15
	return dist.Mix64(s.s)
}

func (s *sm64) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *sm64) Seed(seed int64) { s.s = uint64(seed) }

// seedFor derives node i's RNG seed from the run seed.
func seedFor(seed int64, i int) uint64 {
	return uint64(seed) ^ (uint64(i)+1)*0xD1B54A32D192ED03
}

// winCmd instructs a worker to run one phase: k == 0 is process init,
// k ≥ 1 executes window k over calendar bucket `bucket`.
type winCmd struct {
	k      int64
	bucket int64
}

// parRunner owns the worker pool and per-run parallel state; it is rebuilt
// each run on top of the (possibly scratch-retained) shard arenas.
type parRunner struct {
	r       *Runner
	width   time.Duration // window width == lookahead
	workers int
	shards  []*shard
	shardOf []uint8 // node -> shard
	rands   []*rand.Rand
	srcs    []sm64
	work    []chan winCmd
	done    chan int
	closed  bool

	// Observability: the coordinator's "sim" track records one instant per
	// window (width and event count — both deterministic across worker
	// counts); the wall-clock barrier wait goes to the metrics registry
	// only, never the trace.
	simTrack *obs.Track
	obsNow   int64
	barrier  *obs.Histogram
}

// shard is one worker's slice of the simulation: a contiguous node range,
// its calendar queue, and double-buffered staging chains for cross-shard
// sends. All per-node state for nodes in [lo, hi) — the nodes slab, stats,
// RNG — is touched only by this shard's worker (sends from node i happen
// while shard(i) processes i), so workers share no mutable state outside the
// barrier-separated staging chains.
type shard struct {
	pr     *parRunner
	id     int
	lo, hi int // node range [lo, hi)

	cal     calendar // pending events, one bucket per lookahead window
	sortBuf []event  // the window's bucket, scattered into (to, at, seq) order
	counts  []int32  // per-destination counts, len hi-lo

	// staged[k&1][dest] chains the sends made during window k for shard dest,
	// in chunks of cal's arena; who touches a chain when is in the file header.
	staged      [2][]*chunk
	parity      int
	minStaged   int64 // min bucket staged this window (feeds next-window min)
	curBucket   int64 // bucket being processed; staging at ≤ this is a violation
	windowStart time.Duration

	// per-window report, read by the coordinator after the barrier
	nextB    int64
	halts    int
	viol     *causalityViolation
	panicVal any

	events int
	lastAt time.Duration

	// Per-shard pending history counts (WithHistory): folded into the
	// History by the coordinator at window barriers. Full length n — a
	// delivery's sender can live on any shard. nil when no history.
	histDelivered int64
	histSent      []int64

	// Observability: per-node tracks for this shard's node range, driven by
	// the shard's own virtual clock (single-writer: only this shard's worker
	// delivers to its nodes). nil when disabled.
	tracks []*obs.Track
	obsNow int64

	bucketPeak int // sortBuf's retained-capacity peak for the scratch shrink rule

	stepState
}

// parScratch retains the parallel arenas across runs (inside Scratch).
// clean marks a completed handback; a run that panicked leaves it false so
// the next run rebuilds instead of adopting half-mutated arenas.
type parScratch struct {
	workers, n int
	clean      bool
	shards     []*shard
	shardOf    []uint8
	rands      []*rand.Rand
	srcs       []sm64
}

func newParScratch(workers, n int) *parScratch {
	ps := &parScratch{
		workers: workers,
		n:       n,
		shardOf: make([]uint8, n),
		srcs:    make([]sm64, n),
		rands:   make([]*rand.Rand, n),
	}
	for i := range ps.rands {
		ps.rands[i] = rand.New(&ps.srcs[i])
	}
	ps.shards = make([]*shard, workers)
	for s := 0; s < workers; s++ {
		lo, hi := s*n/workers, (s+1)*n/workers
		sh := &shard{
			id:     s,
			lo:     lo,
			hi:     hi,
			counts: make([]int32, hi-lo),
			staged: [2][]*chunk{make([]*chunk, workers), make([]*chunk, workers)},
		}
		sh.sent.id = uint32(s) << recBits
		ps.shards[s] = sh
		for i := lo; i < hi; i++ {
			ps.shardOf[i] = uint8(s)
		}
	}
	return ps
}

// setupParallel validates the parallel configuration and materialises the
// worker pool state; called from NewRunner when WithParallelWindow is set.
func (r *Runner) setupParallel(seed int64) error {
	n := r.cfg.N
	if n >= maxParN {
		return fmt.Errorf("sim: parallel mode supports at most %d nodes, got n=%d", maxParN-1, n)
	}
	ml, ok := r.env.Latency.(MinLatencyModel)
	if !ok {
		return fmt.Errorf("sim: parallel mode needs a latency model with a MinLatency floor; %T does not declare one", r.env.Latency)
	}
	width := ml.MinLatency()
	if width <= 0 {
		return fmt.Errorf("sim: parallel mode needs a positive lookahead, got %v", width)
	}
	workers := r.parWorkers
	if workers > maxWorkers {
		workers = maxWorkers
	}
	if workers > n {
		workers = n
	}
	var ps *parScratch
	if r.scratch != nil {
		ps = r.scratch.par
	}
	if ps == nil || !ps.clean || ps.workers != workers || ps.n != n {
		ps = newParScratch(workers, n)
		if r.scratch != nil {
			r.scratch.par = ps
		}
	}
	ps.clean = false
	for i := range ps.srcs {
		ps.srcs[i].s = seedFor(seed, i)
	}
	pr := &parRunner{
		r:       r,
		width:   width,
		workers: workers,
		shards:  ps.shards,
		shardOf: ps.shardOf,
		rands:   ps.rands,
		srcs:    ps.srcs,
		work:    make([]chan winCmd, workers),
		done:    make(chan int, workers),
	}
	for s := range pr.work {
		pr.work[s] = make(chan winCmd, 1)
	}
	for _, sh := range ps.shards {
		sh.pr = pr
		sh.cal.width = width
		sh.curBucket = -1
		sh.parity = 0
		sh.minStaged = math.MaxInt64
		sh.nextB = math.MaxInt64
		sh.windowStart = 0
		sh.halts = 0
		sh.viol = nil
		sh.panicVal = nil
		sh.events = 0
		sh.lastAt = 0
		sh.bucketPeak = 0
		sh.outPeak = 0
		sh.tracks = nil
		sh.obsNow = 0
		sh.histDelivered = 0
		if r.history == nil {
			sh.histSent = nil
		} else if len(sh.histSent) != n {
			sh.histSent = make([]int64, n)
		} else {
			clear(sh.histSent)
		}
	}
	if r.rec != nil {
		// Track creation order is the determinism anchor: "sim" first, then
		// the nodes in global ID order (shards cover contiguous ranges), so
		// the exported track layout is independent of the worker count.
		pr.simTrack = r.rec.NewTrack("sim", &pr.obsNow)
		pr.barrier = r.rec.Histogram("sim.barrier_wait_ns")
		r.tracks = make([]*obs.Track, n)
		for _, sh := range ps.shards {
			sh.tracks = make([]*obs.Track, sh.hi-sh.lo)
			for i := sh.lo; i < sh.hi; i++ {
				t := r.rec.NewTrack(fmt.Sprintf("node-%d", i), &sh.obsNow)
				sh.tracks[i-sh.lo] = t
				r.tracks[i] = t
			}
		}
	}
	r.par = pr
	return nil
}

// runWindows is Run's parallel body.
func (pr *parRunner) runWindows() {
	r := pr.r
	for s := range pr.shards {
		go pr.worker(s)
	}
	defer pr.stop()
	pr.issue(winCmd{k: 0})
	b := pr.collect()
	// A window's events start at b*width, so once b*width passes the time
	// bound every remaining event is beyond it.
	maxBucket := int64(r.maxTime / pr.width)
	prevEvents := 0
	for k := int64(1); b != math.MaxInt64 && b <= maxBucket && r.live > 0; k++ {
		bucket := b
		if r.history != nil {
			pr.commitHistory(b)
		}
		pr.issue(winCmd{k: k, bucket: b})
		var t0 time.Time
		if pr.simTrack != nil {
			t0 = time.Now()
		}
		b = pr.collect()
		if pr.simTrack != nil {
			// Wall-clock wait is non-deterministic: metrics registry only.
			pr.barrier.Observe(time.Since(t0).Nanoseconds())
			total := 0
			for _, sh := range pr.shards {
				total += sh.events
			}
			// Window start time and per-window event totals are pure
			// schedule facts — identical across reruns and worker counts —
			// so they may enter the trace.
			pr.obsNow = int64(time.Duration(bucket) * pr.width)
			pr.simTrack.Instant("sim.window", int64(pr.width), int64(total-prevEvents))
			prevEvents = total
		}
	}
	for _, sh := range pr.shards {
		r.events += sh.events
		if sh.lastAt > r.now {
			r.now = sh.lastAt
		}
		if pr.simTrack != nil {
			// Per-shard totals depend on the shard layout (worker count), so
			// they live in the metrics registry, not the trace.
			r.rec.Gauge(fmt.Sprintf("sim.shard.%d.events", sh.id)).Set(int64(sh.events))
		}
	}
}

// commitHistory is the parallel counterpart of History.observe: before
// issuing window b, fold every shard's pending delivery counts into the
// History and commit once the window's start time crosses the epoch
// boundary. It runs in the coordinator between collect() and issue(), so the
// channel barrier orders it after every worker's window-(b-1) writes and
// before any worker's window-b reads — no locks, no races. The bucket
// sequence b is independent of the worker count, so the commit schedule (and
// with it every adaptive decision) is too.
func (pr *parRunner) commitHistory(b int64) {
	h := pr.r.history
	ws := time.Duration(b) * pr.width
	if ws < h.nextCommit {
		return
	}
	for _, sh := range pr.shards {
		if sh.histDelivered == 0 {
			continue
		}
		h.pendDelivered += sh.histDelivered
		sh.histDelivered = 0
		for i := range sh.histSent {
			h.pendSent[i] += sh.histSent[i]
			sh.histSent[i] = 0
		}
	}
	h.commitUpTo(ws)
}

// stop closes the worker channels once; workers drain and exit.
func (pr *parRunner) stop() {
	if pr.closed {
		return
	}
	pr.closed = true
	for _, ch := range pr.work {
		close(ch)
	}
}

func (pr *parRunner) issue(cmd winCmd) {
	for _, ch := range pr.work {
		ch <- cmd
	}
}

// collect waits for the window barrier, folds the per-shard reports into
// the run state, and returns the next window's bucket (MaxInt64 = drained).
// A worker panic or detected causality violation is re-raised here, after a
// clean pool shutdown, so it surfaces to Run's caller.
func (pr *parRunner) collect() int64 {
	for range pr.shards {
		<-pr.done
	}
	b := int64(math.MaxInt64)
	var viol *causalityViolation
	var panicVal any
	for _, sh := range pr.shards {
		if sh.panicVal != nil && panicVal == nil {
			panicVal = sh.panicVal
		}
		if sh.viol != nil && viol == nil {
			viol = sh.viol
		}
		pr.r.live -= sh.halts
		sh.halts = 0
		if sh.nextB < b {
			b = sh.nextB
		}
		if sh.minStaged < b {
			b = sh.minStaged
		}
	}
	if panicVal != nil {
		pr.stop()
		panic(panicVal)
	}
	if viol != nil {
		pr.stop()
		panic(fmt.Sprintf("sim: causality violation: %v", viol))
	}
	return b
}

func (pr *parRunner) worker(s int) {
	sh := pr.shards[s]
	for cmd := range pr.work[s] {
		pr.runCmd(sh, cmd)
		pr.done <- s
	}
}

// runCmd executes one worker phase, converting a protocol panic into a
// report the coordinator re-raises after shutting the pool down.
func (pr *parRunner) runCmd(sh *shard, cmd winCmd) {
	defer func() {
		if p := recover(); p != nil {
			sh.panicVal = p
		}
	}()
	if cmd.k == 0 {
		sh.runInit()
	} else {
		sh.runWindow(cmd.k, cmd.bucket)
	}
}

// runInit runs Init for the shard's processes at t=0. All sends are staged
// (parity 0); curBucket == -1 admits any future bucket.
func (sh *shard) runInit() {
	r := sh.pr.r
	sh.obsNow = 0
	for i := sh.lo; i < sh.hi; i++ {
		if r.procs[i] == nil {
			continue
		}
		sh.beginStep(node.ID(i))
		r.procs[i].Init(&r.envs[i])
		sh.endStep(node.ID(i), 0, 0)
	}
	// Same-shard init sends were enqueued directly; report them.
	sh.nextB = sh.cal.next()
}

// runWindow executes window k over calendar bucket b.
func (sh *shard) runWindow(k, b int64) {
	r := sh.pr.r
	p := int(k & 1)
	sh.parity = p
	sh.curBucket = b
	sh.windowStart = time.Duration(b) * sh.pr.width
	sh.minStaged = math.MaxInt64

	// File the sends every shard staged for us during window k-1 (parity
	// p^1; the barrier orders those writes before these reads). None lies
	// before b: the coordinator's window minimum includes every shard's
	// calendar and staging.
	for _, t := range sh.pr.shards {
		for ch := t.staged[p^1][sh.id]; ch != nil; ch = ch.next {
			for i := range ch.ev[:ch.n] {
				sh.cal.push(&ch.ev[i], int64(ch.ev[i].at/sh.pr.width))
			}
		}
	}

	// Recycle our parity-p staging: written during window k-2, filed by its
	// destinations during k-1, dead since.
	for _, chain := range sh.staged[p] {
		sh.cal.recycle(chain)
	}
	clear(sh.staged[p])

	// Process our slice of the window: one bucket, ordered by (to, at, seq)
	// — a total order, so the result is independent of the filing order
	// above and of the worker count.
	chain := sh.cal.detach(b)
	evs := sh.sortBucket(chain)
	sh.cal.recycle(chain)
	for i := range evs {
		e := &evs[i]
		if e.at > sh.lastAt {
			sh.lastAt = e.at
		}
		if e.at > r.maxTime {
			continue
		}
		sh.deliver(e)
	}
	sh.bucketPeak = max(sh.bucketPeak, len(evs))

	sh.nextB = sh.cal.next()
}

// sortBucket returns the chain's events in (to, at, seq) order, in sortBuf:
// counting-scattered by destination straight from the chunks (counts spans
// the shard's node range: two linear passes where a comparison sort calls a
// closure per pair), then each destination's group finished by
// sortGroup. The result is the unique (to, at, seq) order whatever the
// (worker-count-dependent) filing order was, so schedules stay byte-identical
// across worker counts.
func (sh *shard) sortBucket(chain *chunk) []event {
	lo := int32(sh.lo)
	counts := sh.counts
	clear(counts)
	for ch := chain; ch != nil; ch = ch.next {
		for i := range ch.ev[:ch.n] {
			counts[ch.ev[i].to-lo]++
		}
	}
	// Prefix-sum the counts into scatter offsets, then place each event.
	total := int32(0)
	for d := range counts {
		c := counts[d]
		counts[d] = total
		total += c
	}
	if cap(sh.sortBuf) < int(total) {
		sh.sortBuf = make([]event, total)
	}
	buf := sh.sortBuf[:total]
	for ch := chain; ch != nil; ch = ch.next {
		for i := range ch.ev[:ch.n] {
			d := ch.ev[i].to - lo
			buf[counts[d]] = ch.ev[i]
			counts[d]++
		}
	}
	// counts[d] is now each group's end offset; the previous group's end is
	// its start.
	start := int32(0)
	for d := range counts {
		end := counts[d]
		if end-start > 1 {
			sh.pr.sortGroup(buf[start:end])
		}
		start = end
	}
	return buf
}

// record returns the sent record rec names, which a barrier must have published.
func (pr *parRunner) record(rec uint32) *sent { return pr.shards[rec>>recBits].sent.at(rec) }

// compare orders two events by (at, seq), seq — the sender's per-node count,
// then the sender, so independent of the sharding — looked up on ties only.
func (pr *parRunner) compare(a, b *event) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	ma, mb := pr.record(a.rec), pr.record(b.rec)
	return cmp.Compare((ma.base+uint64(a.to))<<seqShift|uint64(ma.from), (mb.base+uint64(b.to))<<seqShift|uint64(mb.from))
}

// sortGroup orders one destination's events by (at, seq): insertion sort
// for the common tiny group, generic sort beyond it.
func (pr *parRunner) sortGroup(g []event) {
	if len(g) > 48 {
		slices.SortFunc(g, func(a, b event) int { return pr.compare(&a, &b) })
		return
	}
	for i := 1; i < len(g); i++ {
		e := g[i]
		j := i - 1
		for j >= 0 && pr.compare(&g[j], &e) > 0 {
			g[j+1] = g[j]
			j--
		}
		g[j+1] = e
	}
}

// deliver processes one delivery on this shard (the parallel counterpart of
// Runner.deliver; run-termination is the coordinator's job).
func (sh *shard) deliver(e *event) {
	r := sh.pr.r
	sh.obsNow = int64(e.at)
	to := node.ID(e.to)
	if r.nodes[to].halted || r.procs[to] == nil {
		return
	}
	m := sh.pr.record(e.rec)
	from := node.ID(m.from)
	if sh.histSent != nil {
		sh.histDelivered++
		sh.histSent[from]++
	}
	sh.events++
	r.stats[to].MsgsRecv++
	sh.beginStep(to)
	r.procs[to].Deliver(from, m.msg)
	sh.endStep(to, e.at, r.env.Cost.messageCost(int(m.size)))
}

func (sh *shard) endStep(id node.ID, t, base time.Duration) {
	ready := sh.finishStep(sh.pr.r, id, t, base)
	for _, om := range sh.curOutMsgs {
		sh.dispatch(id, om, ready)
	}
	sh.inStep = false
}

// dispatch is the parallel counterpart of Runner.dispatch: the same
// departure, but jitter comes from the sender's own RNG stream, the
// sequence number is per-sender (worker-count independent), and the event
// is staged for its destination shard.
func (sh *shard) dispatch(from node.ID, om outMsg, ready time.Duration) {
	r, ns, m := sh.pr.r, &sh.pr.r.nodes[from], sh.sent.at(om.rec)
	m.base = ns.sendSeq + 1 - uint64(om.lo)
	ns.sendSeq += uint64(om.hi - om.lo)
	for to := om.lo; to < om.hi; to++ {
		at := r.depart(from, node.ID(to), m, ready, sh.pr.rands[from])
		sh.stage(&event{at: at, rec: om.rec, to: to})
	}
}

// stage buffers an event for its destination shard, detecting causality
// violations: an event landing in the bucket being processed (or earlier)
// would have to be inserted into a committed window.
func (sh *shard) stage(e *event) {
	idx := int64(e.at / sh.pr.width)
	if idx <= sh.curBucket {
		if sh.viol == nil {
			sh.viol = &causalityViolation{at: e.at, bucket: idx, window: sh.curBucket, from: node.ID(sh.sent.at(e.rec).from), to: node.ID(e.to)}
		}
		return
	}
	d := sh.pr.shardOf[e.to]
	if int(d) == sh.id {
		// Same-shard traffic skips the staging round-trip: straight into
		// our own calendar (sortBucket restores the total order, and the
		// end-of-phase next() reports it to the coordinator).
		sh.cal.push(e, idx)
		return
	}
	if idx < sh.minStaged {
		sh.minStaged = idx
	}
	*sh.cal.slot(&sh.staged[sh.parity][d]) = *e
}

// handback drops every retained message reference (the sent arenas') and
// shrinks the parallel arenas; called from Run when a Scratch is installed.
func (pr *parRunner) handback(s *Scratch) {
	ps := s.par
	if ps == nil {
		return
	}
	for _, sh := range pr.shards {
		sh.sent.release()
		sh.cal.release() // empties the arena's every chunk, staged ones too
		clear(sh.staged[0])
		clear(sh.staged[1])
		sh.sortBuf = shrunk(sh.sortBuf, sh.bucketPeak)
		sh.curOutMsgs = shrunk(sh.curOutMsgs, sh.outPeak)
	}
	ps.clean = true
}
