// The conservative-window executor, the simulator's one way to run.
//
// The classic conservative-PDES argument: if every message in the simulated
// network takes at least L (the lookahead — here the latency model's
// declared MinLatency; a DelayRule only ever adds delay), then all
// events in one virtual-time window [T, T+L) are causally independent
// across nodes — anything an event at time t generates lands at
// t + L ≥ T + L, beyond the window. The runner therefore partitions the
// nodes into contiguous shards and executes one window per barrier: every
// shard files the sends staged for it in the previous window, delivers its
// slice of the current window, and stages its own sends for the next. One
// worker, the default, has no pool: Run's goroutine runs its one shard
// itself. WithParallelWindow hands each shard to a worker of a pool.
//
// Each shard keeps its pending events in a calendar (calendar.go) whose
// bucket width is the lookahead, so one bucket is one window: the shard
// copies the window's chain of chunks out, recycles the chain, orders the
// copy by (at, seq) in linear radix passes (order), and delivers. Events
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
// Determinism: a shard delivers a window in (at, seq) order, seq being the
// sender's per-node count, then the sender, so it does not depend on the
// sharding; each node draws latency jitter from its own seed-derived RNG
// stream; and every worker observes the same global window sequence. Inside
// a window only each destination's own (at, seq) order is observable, so
// runs are byte-identical across reruns AND across worker counts.
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
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"delphi/internal/dist"
	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/wire"
)

const (
	// seqShift packs per-sender sequence numbers as seq<<seqShift|sender,
	// bounding every run to maxParN−1 nodes.
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

// shard is one worker's slice of the simulation: a contiguous node range,
// its calendar queue, and double-buffered staging chains for cross-shard
// sends. All per-node state for nodes in [lo, hi) — the nodes slab, stats,
// RNG — is touched only by this shard's worker (sends from node i happen
// while shard(i) processes i), so workers share no mutable state outside the
// barrier-separated staging chains.
type shard struct {
	r      *Runner
	id     int
	lo, hi int // node range [lo, hi)

	cal  calendar // pending events, one bucket per lookahead window
	run  []event  // the window being delivered, in take order
	keys []uint64 // len(run) keys in (at, seq) order, then as much sorting space

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

	// Observability: the clock of the trace tracks of this shard's nodes
	// (single-writer: only this shard's worker delivers to its nodes).
	obsNow int64

	runPeak int        // run's retained-capacity peak for the scratch shrink rule
	lent    wire.Arena // what its nodes' sends are carved from (see simEnv.SentArena)

	stepState
}

// setup materialises the shards on s's arenas, rebuilt unless a clean
// hand-back left them for this worker count; a new n only moves the shards'
// node ranges.
func (r *Runner) setup(seed int64) {
	n := r.cfg.N
	workers := min(max(r.workers, 1), maxWorkers, n)
	s := r.scratch
	if s == nil {
		s = &Scratch{}
	}
	r.nodes = resetNodes(s.nodes, n)
	if !s.clean || len(s.shards) != workers {
		s.shards = make([]*shard, workers)
		for k := range s.shards {
			s.shards[k] = &shard{id: k, staged: [2][]*chunk{make([]*chunk, workers), make([]*chunk, workers)}}
			s.shards[k].sent.id = uint32(k) << recBits
		}
	}
	if len(s.srcs) < n {
		s.shardOf, s.srcs, s.rands = make([]uint8, n), make([]sm64, n), make([]*rand.Rand, n)
		for i := range s.rands {
			s.rands[i] = rand.New(&s.srcs[i])
		}
	}
	for k, sh := range s.shards {
		sh.lo, sh.hi = k*n/workers, (k+1)*n/workers
		for i := sh.lo; i < sh.hi; i++ {
			s.shardOf[i] = uint8(k)
		}
	}
	s.clean = false
	for i := range n {
		s.srcs[i].s = seedFor(seed, i)
	}
	r.shards, r.shardOf, r.rands = s.shards, s.shardOf[:n], s.rands[:n]
	if workers > 1 { // else no pool: issue runs the one shard
		r.done, r.work = make(chan int, workers), make([]chan winCmd, workers)
		for k := range r.work {
			r.work[k] = make(chan winCmd, 1)
		}
	}
	for _, sh := range s.shards {
		sh.r = r
		sh.cal.width = r.width
		sh.curBucket, sh.minStaged, sh.nextB = -1, math.MaxInt64, math.MaxInt64
		sh.parity, sh.windowStart, sh.events, sh.lastAt, sh.obsNow = 0, 0, 0, 0, 0
		sh.halts, sh.viol, sh.panicVal, sh.runPeak, sh.outPeak = 0, nil, nil, 0, 0
		sh.histDelivered = 0
		sh.lent.Reset() // the last run's messages are dead
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
		r.simTrack = r.rec.NewTrack("sim", &r.simNow)
		r.barrier = r.rec.Histogram("sim.barrier_wait_ns")
		r.tracks = make([]*obs.Track, n)
		for _, sh := range s.shards {
			for i := sh.lo; i < sh.hi; i++ {
				r.tracks[i] = r.rec.NewTrack(fmt.Sprintf("node-%d", i), &sh.obsNow)
			}
		}
	}
}

// runWindows is Run's body: init, then one window per barrier until the
// queue drains, every process halts or the time bound passes.
func (r *Runner) runWindows() {
	for k := range r.work {
		go r.worker(k)
	}
	defer r.stop()
	r.issue(winCmd{k: 0})
	b := r.collect()
	// A window's events start at b*width, so once b*width passes the time
	// bound every remaining event is beyond it.
	maxBucket := int64(r.maxTime / r.width)
	prevEvents := 0
	for k := int64(1); b != math.MaxInt64 && b <= maxBucket && r.live > 0; k++ {
		bucket := b
		if r.history != nil {
			r.commitHistory(b)
		}
		r.issue(winCmd{k: k, bucket: b})
		var t0 time.Time
		if r.simTrack != nil {
			t0 = time.Now()
		}
		b = r.collect()
		if r.simTrack != nil {
			// Wall-clock wait is non-deterministic: metrics registry only.
			r.barrier.Observe(time.Since(t0).Nanoseconds())
			total := 0
			for _, sh := range r.shards {
				total += sh.events
			}
			// Window start time and per-window event totals are pure
			// schedule facts — identical across reruns and worker counts —
			// so they may enter the trace.
			r.simNow = int64(time.Duration(bucket) * r.width)
			r.simTrack.Instant("sim.window", int64(r.width), int64(total-prevEvents))
			prevEvents = total
		}
	}
	for _, sh := range r.shards {
		r.events += sh.events
		r.now = max(r.now, sh.lastAt)
		if r.simTrack != nil {
			// Per-shard totals depend on the shard layout (worker count), so
			// they live in the metrics registry, not the trace.
			r.rec.Gauge(fmt.Sprintf("sim.shard.%d.events", sh.id)).Set(int64(sh.events))
		}
	}
}

// commitHistory is History's commit rule: before issuing window b, once the
// window's start time crosses the next epoch boundary, it folds every
// shard's delivery counts into the committed prefix. It runs in the
// coordinator between collect() and issue(), so the barrier orders it after
// every worker's window-(b-1) writes and before any worker's window-b reads —
// no locks, no races. The bucket sequence b is independent of the worker
// count, so the commit schedule (and with it every adaptive decision) is too.
func (r *Runner) commitHistory(b int64) {
	h := r.history
	ws := time.Duration(b) * r.width
	if ws < h.nextCommit {
		return
	}
	for _, sh := range r.shards {
		if sh.histDelivered == 0 {
			continue
		}
		h.delivered += sh.histDelivered
		sh.histDelivered = 0
		for i, c := range sh.histSent {
			h.sent[i] += c
		}
		clear(sh.histSent)
	}
	h.commit(ws)
}

// stop closes the worker channels once; workers drain and exit.
func (r *Runner) stop() {
	if r.closed {
		return
	}
	r.closed = true
	for _, ch := range r.work {
		close(ch)
	}
}

// issue starts phase cmd on every worker, or with no pool runs it here.
func (r *Runner) issue(cmd winCmd) {
	if r.work == nil {
		r.runCmd(r.shards[0], cmd)
	}
	for _, ch := range r.work {
		ch <- cmd
	}
}

// collect waits for the window barrier, folds the per-shard reports into
// the run state, and returns the next window's bucket (MaxInt64 = drained).
// A worker panic or detected causality violation is re-raised here, after a
// clean pool shutdown, so it surfaces to Run's caller.
func (r *Runner) collect() int64 {
	for range r.work {
		<-r.done
	}
	b := int64(math.MaxInt64)
	var viol *causalityViolation
	var panicVal any
	for _, sh := range r.shards {
		if sh.panicVal != nil && panicVal == nil {
			panicVal = sh.panicVal
		}
		if sh.viol != nil && viol == nil {
			viol = sh.viol
		}
		r.live -= sh.halts
		sh.halts = 0
		b = min(b, sh.nextB, sh.minStaged)
	}
	if panicVal != nil {
		r.stop()
		panic(panicVal)
	}
	if viol != nil {
		r.stop()
		panic(fmt.Sprintf("sim: causality violation: %v", viol))
	}
	return b
}

func (r *Runner) worker(k int) {
	sh := r.shards[k]
	for cmd := range r.work[k] {
		r.runCmd(sh, cmd)
		r.done <- k
	}
}

// runCmd executes one worker phase, converting a protocol panic into a
// report the coordinator re-raises after shutting the pool down.
func (r *Runner) runCmd(sh *shard, cmd winCmd) {
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
	r := sh.r
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
	r := sh.r
	p := int(k & 1)
	sh.parity = p
	sh.curBucket = b
	sh.windowStart = time.Duration(b) * r.width
	sh.minStaged = math.MaxInt64

	// File the sends every shard staged for us during window k-1 (parity
	// p^1; the barrier orders those writes before these reads). None lies
	// before b: the coordinator's window minimum includes every shard's
	// calendar and staging.
	for _, t := range r.shards {
		for ch := t.staged[p^1][sh.id]; ch != nil; ch = ch.next {
			for i := range ch.ev[:ch.n] {
				sh.cal.push(&ch.ev[i], int64(ch.ev[i].at/r.width))
			}
		}
	}

	// Recycle our parity-p staging: written during window k-2, filed by its
	// destinations during k-1, dead since.
	for _, chain := range sh.staged[p] {
		sh.cal.recycle(chain)
	}
	clear(sh.staged[p])

	// Deliver our slice of the window in (at, seq) order — a total order, so
	// the result is independent of the filing order above and of the worker
	// count.
	sh.run = sh.cal.take(b, sh.run[:0])
	sh.runPeak = max(sh.runPeak, len(sh.run))
	for _, key := range sh.order() {
		e := &sh.run[uint32(key)]
		sh.lastAt = max(sh.lastAt, e.at)
		if e.at <= r.maxTime {
			sh.deliver(e)
		}
	}
	sh.nextB = sh.cal.next()
}

// order returns run's indices in (at, seq) order, in keys, each under the
// window offset of its time: key = (at−windowStart)>>drop<<32 | index, drop
// leaving the offset at most 32 bits whatever the width (none below 4.3 s).
// Stable counting passes of ten bits order the keys in linear time, two at
// the AWS and Local widths (19 and 20 bits), 10 ns an event at 16 k against
// a comparison sort's 80; under radixMin events zeroing and summing the
// counters costs more than comparing (26 against 13 ns at 64, 15 against 18
// at 128). Events of one key then stand in take order, not seq order (chunks
// chain newest first): each such group is sorted by compare, which looks the
// sent records up only when two times tie.
func (sh *shard) order() []uint64 {
	const radixMin = 128
	run, n := sh.run, len(sh.run)
	if cap(sh.keys) < 2*n {
		sh.keys = make([]uint64, 2*cap(run))
	}
	keys, tmp := sh.keys[:n], sh.keys[n:2*n]
	span := bits.Len64(uint64(sh.r.width - 1))
	drop := max(span-32, 0)
	for i := range run {
		keys[i] = uint64(run[i].at-sh.windowStart)>>drop<<32 | uint64(i)
	}
	if n < radixMin {
		slices.Sort(keys)
	} else {
		src, dst := keys, tmp
		for shift := 32; shift < 32+span-drop; shift, src, dst = shift+10, dst, src {
			var count [1 << 10]uint32
			for _, k := range src {
				count[k>>shift&1023]++
			}
			sum := uint32(0)
			for d, c := range count {
				count[d], sum = sum, sum+c
			}
			for _, k := range src {
				dst[count[k>>shift&1023]] = k
				count[k>>shift&1023]++
			}
		}
		if &src[0] != &keys[0] { // an odd number of passes
			copy(keys, src)
		}
	}
	byTime := func(a, b uint64) int { return sh.r.compare(&run[uint32(a)], &run[uint32(b)]) }
	for i, j := 0, 1; j <= n; j++ {
		if j == n || keys[j]>>32 != keys[i]>>32 {
			if j-i > 1 {
				slices.SortFunc(keys[i:j], byTime)
			}
			i = j
		}
	}
	return keys
}

// record returns the sent record rec names, which a barrier must have published.
func (r *Runner) record(rec uint32) *sent { return r.shards[rec>>recBits].sent.at(rec) }

// compare orders two events by (at, seq), seq — the sender's per-node count,
// then the sender, so independent of the sharding — looked up on ties only.
func (r *Runner) compare(a, b *event) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	ma, mb := r.record(a.rec), r.record(b.rec)
	return cmp.Compare((ma.base+uint64(a.to))<<seqShift|uint64(ma.from), (mb.base+uint64(b.to))<<seqShift|uint64(mb.from))
}

// deliver processes one delivery on this shard; run termination is the
// coordinator's job.
func (sh *shard) deliver(e *event) {
	r := sh.r
	sh.obsNow = int64(e.at)
	to := node.ID(e.to)
	if r.nodes[to].halted || r.procs[to] == nil {
		return
	}
	m := r.record(e.rec)
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

// endStep closes the step opened at virtual time t and flushes its staged
// sends: they leave the node once processing completes.
func (sh *shard) endStep(id node.ID, t, base time.Duration) {
	ready := sh.finishStep(sh.r, id, t, base)
	for _, om := range sh.curOutMsgs {
		sh.dispatch(id, om, ready)
	}
	sh.inStep = false
}

// dispatch enqueues a staged send's deliveries, leaving at ready or later:
// the sequence numbers are the sender's own (worker-count independent), and
// each event is staged for its destination shard.
func (sh *shard) dispatch(from node.ID, om outMsg, ready time.Duration) {
	ns, m := &sh.r.nodes[from], sh.sent.at(om.rec)
	m.base = ns.sendSeq + 1 - uint64(om.lo)
	ns.sendSeq += uint64(om.hi - om.lo)
	for to := om.lo; to < om.hi; to++ {
		sh.stage(&event{at: sh.r.depart(from, node.ID(to), m, ready), rec: om.rec, to: to})
	}
}

// stage buffers an event for its destination shard, detecting causality
// violations: an event landing in the bucket being processed (or earlier)
// would have to be inserted into a committed window.
func (sh *shard) stage(e *event) {
	idx := int64(e.at / sh.r.width)
	if idx <= sh.curBucket {
		if sh.viol == nil {
			sh.viol = &causalityViolation{at: e.at, bucket: idx, window: sh.curBucket, from: node.ID(sh.sent.at(e.rec).from), to: node.ID(e.to)}
		}
		return
	}
	d := sh.r.shardOf[e.to]
	if int(d) == sh.id {
		// Same-shard traffic skips the staging round-trip: straight into
		// our own calendar (order restores the total order, and the
		// end-of-phase next() reports it to the coordinator).
		sh.cal.push(e, idx)
		return
	}
	sh.minStaged = min(sh.minStaged, idx)
	*sh.cal.slot(&sh.staged[sh.parity][d]) = *e
}

// handback drops every retained message reference (the sent arenas') and
// shrinks the arenas; called from Run when a Scratch is installed.
func (r *Runner) handback(s *Scratch) {
	for _, sh := range r.shards {
		sh.sent.release()
		sh.cal.release() // empties the arena's every chunk, staged ones too
		clear(sh.staged[0])
		clear(sh.staged[1])
		sh.run = shrunk(sh.run, sh.runPeak)
		sh.keys = shrunk(sh.keys, 2*sh.runPeak)
		sh.curOutMsgs = shrunk(sh.curOutMsgs, sh.outPeak)
	}
	s.nodes = shrunk(r.nodes, r.cfg.N)
	s.clean = true
}
