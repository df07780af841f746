// Package sim is a deterministic virtual-time discrete-event simulator for
// asynchronous message-passing protocols.
//
// It stands in for the paper's two physical testbeds:
//
//   - the geo-distributed AWS deployment (latency-dominated), modelled by a
//     WAN latency matrix over eight regions with jitter, and
//   - the Raspberry-Pi CPS testbed (bandwidth- and compute-dominated),
//     modelled by a LAN latency, a constrained per-node uplink, and a CPU
//     cost model with Raspberry-Pi-class constants.
//
// Protocols implement node.Process and are driven by the simulator without
// knowing they are being simulated. All randomness flows from a single seed,
// so every experiment is reproducible.
//
// The event loop is built for sweep throughput. Pending deliveries are 16-byte
// pointer-free event values (no per-event allocation; message, sender and
// sequence numbers sit once per Send or Broadcast call in the sending
// executor's arena) in one structure under both executors: a calendar
// (calendar.go) files them by time bucket in fixed-size chunks, and the
// sequential loop orders only the bucket it is about to drain, in linear radix
// passes over 8-byte keys — at n=1000 a push is a write to the end of a chunk
// and a pop reads the next key of a cache-resident run, where a single heap
// over the million pending events missed the cache at every level. A small
// inlined 4-ary heap holds what is pushed into the bucket being drained, and
// all of a queue that never reaches nearMin events and builds no calendar. Per-
// node bookkeeping lives in one contiguous nodeState slab, each node's Env is
// allocated once per run, and a delivery is a direct Deliver call with no per-
// event closure; Scratch lets a session reuse all of this storage across runs.
// Pop order is fully determined by the (time, sequence) total order, so none of
// it changes a scheduled delivery: fixed-seed runs are byte-identical to the
// original container/heap implementation (bench.TestSimGoldenByteIdentity and,
// for the queue alone, TestCalendarOrder).
//
// An opt-in conservative-window parallel mode (WithParallelWindow) shards
// the nodes across a worker pool, one calendar per shard, and executes each
// minimum-network-delay window of causally independent events concurrently;
// see parallel.go.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"delphi/internal/node"
	"delphi/internal/obs"
)

// event is a message delivery scheduled at a virtual time, stored by value, 16
// bytes and no pointer: rec names the sending call's record — its executor's
// arena (0, or the shard) above recBits, its index there below — which has the
// sender and the sequence numbers; node ids are int32 (NewRunner bounds n).
type event struct {
	at  time.Duration
	rec uint32
	to  int32
}

// sent is one Send or Broadcast call: message, wire size (MAC included), sender
// and base — dispatch stamps it, not put: an out-of-step send is dispatched
// before sends put earlier — its delivery to node `to` having sequence number
// base+to. Its deliveries, on whichever shard, only read it (a barrier later).
type sent struct {
	msg        node.Message
	base       uint64
	size, from int32
}

// sentArena hands out a run's sent records and is the only place the run holds
// a reference. Slab k holds 1<<(k+sentShift) records, and the slab table is a
// fixed array: a shard resolves another shard's rec while that shard appends,
// which an append-grown table would not survive.
type sentArena struct {
	slabs [recBits - sentShift]*[]sent
	held  int    // slabs[:held] are allocated
	used  uint32 // records handed out this run
	id    uint32 // the executor's arena id, shifted above recBits
}

// locate returns record i's slab and index there: i+1<<sentShift's top bit, the rest.
func locate(i uint32) (k int, off uint32) {
	j := i + 1<<sentShift
	top := bits.Len32(j) - 1
	return top - sentShift, j &^ (1 << top)
}

// at returns the record rec names in this arena.
func (a *sentArena) at(rec uint32) *sent {
	k, off := locate(rec & recMask)
	return &(*a.slabs[k])[off]
}

// put records a send by node from and returns its rec.
func (a *sentArena) put(m node.Message, size int, from node.ID) uint32 {
	if a.used == sentLimit || size > math.MaxInt32 {
		panic(fmt.Sprintf("sim: send %d of %d bytes is past an arena's %d sends or %d bytes", a.used, size, sentLimit, math.MaxInt32))
	}
	k, off := locate(a.used)
	if k == a.held {
		slab := make([]sent, 1<<(k+sentShift))
		a.slabs[k], a.held = &slab, k+1
	}
	(*a.slabs[k])[off] = sent{msg: m, size: int32(size), from: int32(from)}
	a.used++
	return a.id | (a.used - 1)
}

// retained reports the arena's record capacity.
func (a *sentArena) retained() int { return 1<<(a.held+sentShift) - 1<<sentShift }

// release drops every message reference, then applies the scratch shrink rule:
// slabs that start beyond eight times this run's use go.
func (a *sentArena) release() {
	next, _ := locate(a.used)
	for _, slab := range a.slabs[:min(a.held, next+1)] {
		clear(*slab) // the rest are clean since an earlier release
	}
	keep, _ := locate(8 * a.used)
	clear(a.slabs[min(a.held, keep+1):a.held])
	a.held, a.used = min(a.held, keep+1), 0
}

// heapEvent is an event beside its sequence number: the near heap orders by it.
type heapEvent struct {
	event
	seq uint64 // tie-breaker for determinism
}

// before reports whether e is scheduled strictly before o. seq is unique,
// so this is a total order and the heap's pop sequence is independent of
// its internal layout.
func (e *heapEvent) before(o *heapEvent) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// eventHeap is an inlined 4-ary min-heap of events ordered by (at, seq): the
// sequential runner's near heap and every calendar's beyond-horizon
// overflow (seq 0: it hands events back to the ring by at alone). The value
// layout and the manual sift loops keep heap maintenance allocation-free.
type eventHeap []heapEvent

// push adds e to the heap, sifting it towards the root.
func (h *eventHeap) push(e heapEvent) {
	q := append(*h, e)
	*h = q
	for i := len(q) - 1; i > 0; {
		p := (i - 1) >> 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() heapEvent {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	*h = q[:n]
	if n == 0 {
		return top
	}
	// Sift the former tail down from the root, always descending into the
	// smallest of up to four children.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
	return top
}

// nodeState is one node's hot bookkeeping, packed into a single slab entry
// so a delivery touches one cache line of per-node state instead of three
// parallel slices. sendSeq is used only by the parallel mode (per-sender
// sequence numbers keep event ordering independent of shard count).
type nodeState struct {
	busyUntil time.Duration
	// uplinkFree tracks when the node's uplink next idles (bandwidth
	// serialization).
	uplinkFree time.Duration
	sendSeq    uint64
	halted     bool
}

// LatencyModel samples one-way network latency between two nodes.
type LatencyModel interface {
	// Latency returns the propagation delay from one node to another.
	Latency(from, to node.ID, rng *rand.Rand) time.Duration
}

// MinLatencyModel is implemented by latency models that can declare a hard
// lower bound on every latency they will ever sample. The parallel runner
// derives its conservative-window lookahead from this floor: events less
// than one floor apart are causally independent across nodes. A model whose
// MinLatency overstates the true minimum makes the parallel runner fail
// loudly on the first violation rather than silently diverge.
type MinLatencyModel interface {
	MinLatency() time.Duration
}

// CostModel converts abstract compute costs into virtual CPU time.
type CostModel struct {
	// PerMessage is the fixed cost of receiving and dispatching a message.
	PerMessage time.Duration
	// PerByte is the per-byte serialization/MAC cost.
	PerByte time.Duration
	// Hash is the cost of one symmetric-crypto operation (SHA-256/HMAC).
	Hash time.Duration
	// SigVerify is the cost of one signature verification.
	SigVerify time.Duration
	// SigSign is the cost of one signing operation.
	SigSign time.Duration
	// Pairing is the cost of one pairing-equivalent operation.
	Pairing time.Duration
	// Contention multiplies all compute costs; used to model several
	// protocol processes sharing one device (the CPS testbed runs ~11
	// processes per 4-core Raspberry Pi at n=169).
	Contention float64
}

// Cost returns the virtual CPU time for c.
func (m CostModel) Cost(c node.ComputeCost) time.Duration {
	d := time.Duration(c.Hashes)*m.Hash +
		time.Duration(c.SigVerifies)*m.SigVerify +
		time.Duration(c.SigSigns)*m.SigSign +
		time.Duration(c.Pairings)*m.Pairing +
		time.Duration(c.Bytes)*m.PerByte
	if m.Contention > 0 {
		d = time.Duration(float64(d) * m.Contention)
	}
	return d
}

// messageCost returns the baseline cost of receiving one message of the
// given size: one MAC verification over its bytes plus dispatch overhead.
func (m CostModel) messageCost(size int) time.Duration {
	d := m.PerMessage + m.Hash + time.Duration(size)*m.PerByte
	if m.Contention > 0 {
		d = time.Duration(float64(d) * m.Contention)
	}
	return d
}

// Environment bundles the network and compute characteristics of a testbed.
type Environment struct {
	// Name labels the environment in reports ("aws", "cps").
	Name string
	// Latency is the propagation-delay model.
	Latency LatencyModel
	// UplinkBytesPerSec bounds each node's outgoing bandwidth. Zero means
	// unlimited.
	UplinkBytesPerSec float64
	// Cost is the CPU cost model.
	Cost CostModel
	// MACBytes is the per-message authentication overhead added to the
	// wire size (HMAC-SHA256 tag).
	MACBytes int
}

// NodeStats aggregates per-node accounting.
type NodeStats struct {
	// MsgsSent and BytesSent count outgoing traffic (MAC included).
	MsgsSent  int
	BytesSent int64
	// MsgsRecv counts processed deliveries.
	MsgsRecv int
	// Compute accumulates the node's explicitly charged crypto/compute
	// work (signature counts feed the oracle-protocol comparisons).
	Compute node.ComputeCost
	// Output holds everything the node reported via Env.Output.
	Output []any
	// OutputAt is the virtual time of the last Output call.
	OutputAt time.Duration
	// Halted reports whether the process called Halt.
	Halted bool
	// HaltedAt is the virtual time of the Halt call.
	HaltedAt time.Duration
}

// Result summarises one simulation run.
type Result struct {
	// Stats holds per-node accounting, indexed by node ID.
	Stats []NodeStats
	// Time is the virtual time when the run ended.
	Time time.Duration
	// Events is the number of deliveries processed.
	Events int
	// TotalBytes is the sum of bytes sent by all nodes.
	TotalBytes int64
	// TotalMsgs is the sum of messages sent by all nodes.
	TotalMsgs int
}

// DelayRule lets an adversarial scheduler inject extra delay on selected
// links/messages. It is consulted for every message with the message's
// departure time (after the sender's compute and uplink serialization), so
// time-varying adversaries — transient partitions, delay bursts — can be
// expressed as pure functions. Return 0 for no extra delay. A rule must be
// deterministic in its arguments: the simulator's reproducibility guarantee
// extends to adversarial schedules only if the rule derives any randomness
// from its inputs (see internal/netadv for seed-deterministic presets).
type DelayRule func(at time.Duration, from, to node.ID, m node.Message) time.Duration

// Scratch is a Runner's reusable storage: the near heap's backing array, the
// drained bucket's run and sort keys, the calendar's chunk slabs, the sent
// arena, the per-node bookkeeping slab, and — for parallel runs — each shard's
// calendar (whose chunks also stage its cross-shard sends), sent arena and
// scatter buffer. A session hands the same Scratch to consecutive NewRunner
// calls, and run.Run the last one-shot run's, so a sweep performs the growth
// allocations once instead of once per trial. A Scratch must not be shared by
// concurrently running Runners; reuse never changes results (every buffer is
// fully reset) — only allocation counts. It holds no message: the sent arenas
// are the only storage with a pointer in it, and hand-back clears them.
//
// Retained capacity is bounded, not monotone: after each run every backing
// array whose peak occupancy fit in an eighth of its capacity is halved
// (repeatedly, down to scratchShrinkMin), mirroring the runtime inbox-ring
// rule. A single n=1000+ trial in a mixed matrix therefore stops pinning
// its high-water storage once the sweep returns to paper-scale cells, while
// steady-state sweeps sit inside the 8x hysteresis band and never thrash.
type Scratch struct {
	near    eventHeap
	run     []event
	keys    []uint64
	cal     *calendar
	nodes   []nodeState
	outMsgs []outMsg
	sent    sentArena
	rng     *rand.Rand
	par     *parScratch
}

// scratchShrinkMin is the smallest backing array the post-run shrink pass
// will halve, mirroring the runtime inbox rule: shrink at ≤1/8 occupancy
// while growth doubles at full leaves a 4x hysteresis band.
const scratchShrinkMin = 128

// shrunkCap returns the capacity a retained backing array should keep given
// its peak occupancy this run.
func shrunkCap(c, peak int) int {
	for c >= scratchShrinkMin && peak <= c/8 {
		c /= 2
	}
	return c
}

// shrunk returns buf emptied, reallocated to a smaller backing array when
// this run's peak occupancy left it mostly idle.
func shrunk[T any](buf []T, peak int) []T {
	if c := shrunkCap(cap(buf), peak); c < cap(buf) {
		return make([]T, 0, c)
	}
	return buf[:0]
}

// retainedEvents reports the scratch's total retained event-slot and sent-
// record capacity, every shard's too; the shrink policy's observable for tests.
func (s *Scratch) retainedEvents() int {
	total := cap(s.near) + cap(s.run) + cap(s.keys) + s.sent.retained()
	if s.cal != nil {
		total += s.cal.retained()
	}
	if s.par != nil {
		for _, sh := range s.par.shards {
			total += sh.cal.retained() + cap(sh.sortBuf) + sh.sent.retained()
		}
	}
	return total
}

// Runner drives a set of processes to completion in virtual time.
type Runner struct {
	cfg   node.Config
	env   Environment
	rng   *rand.Rand
	procs []node.Process

	// Pending deliveries: the calendar holds them by bucket (at >>
	// seqBucketShift), run is the bucket being drained — read through keys,
	// its (at, seq) order, from runPos on — and near holds what was pushed at
	// or before that bucket; see push and next. cal is nil until the near heap
	// first holds nearMin events.
	near      eventHeap
	nearPeak  int
	cal       *calendar
	run       []event
	keys      []uint64 // len(run) sort keys, then as much sorting space
	runPos    int
	runPeak   int
	seq       uint64
	now       time.Duration
	nodes     []nodeState // per-node bookkeeping slab
	stats     []NodeStats
	live      int // processes neither nil nor halted; 0 ends the run
	envs      []simEnv
	delayRule DelayRule
	history   *History
	maxTime   time.Duration
	events    int
	scratch   *Scratch

	// The parallel-mode knob (WithParallelWindow) and the materialised
	// parallel runner; nil means the sequential loop.
	parWorkers int
	par        *parRunner

	hasUplink bool // hoisted out of the per-message dispatch: is the uplink branch live

	// Observability (WithRecorder): one trace track per node on the
	// virtual clock. obsNow is the sequential loop's clock target; each
	// parallel shard keeps its own. tracks == nil means disabled.
	rec    *obs.Recorder
	tracks []*obs.Track
	obsNow int64

	stepState // the sequential loop's; each parallel shard has its own
}

// outMsg is one staged Send or Broadcast, rec to destinations [lo, hi): dispatch
// expands a broadcast's 0…n−1 in order, as n staged sends would have gone.
type outMsg struct {
	rec    uint32
	lo, hi int32
}

// stepState is the delivery context of the processing step in progress: what
// the process charged, staged and signalled since beginStep.
type stepState struct {
	curNode    node.ID
	curCharge  node.ComputeCost
	curOutMsgs []outMsg
	outPeak    int // retained-capacity peak of curOutMsgs
	curOutput  bool
	curHalt    bool
	inStep     bool
	sent       sentArena // every send by this executor, the loop or one shard
}

// beginStep opens node id's processing step. The caller invokes the
// process directly (Init or Deliver) and then closes the step with endStep;
// splitting the step this way keeps the hot loop free of per-event closures.
func (s *stepState) beginStep(id node.ID) {
	s.inStep = true
	s.curNode = id
	s.curCharge = node.ComputeCost{}
	s.curOutMsgs = s.curOutMsgs[:0]
	s.curOutput = false
	s.curHalt = false
}

// finishStep charges the step's compute on node id starting at virtual time
// t (plus the base delivery cost) and returns when the node is free again,
// which is when the step's staged sends leave.
func (s *stepState) finishStep(r *Runner, id node.ID, t, base time.Duration) time.Duration {
	ns, st := &r.nodes[id], &r.stats[id]
	ns.busyUntil = max(t, ns.busyUntil) + base + r.env.Cost.Cost(s.curCharge)
	st.Compute.Accumulate(s.curCharge)
	if s.curOutput {
		st.OutputAt = ns.busyUntil
	}
	if s.curHalt {
		st.HaltedAt = ns.busyUntil
	}
	s.outPeak = max(s.outPeak, len(s.curOutMsgs))
	return ns.busyUntil
}

// Option configures a Runner.
type Option func(*Runner)

// WithDelayRule installs an adversarial scheduling rule.
func WithDelayRule(r DelayRule) Option {
	return func(rn *Runner) { rn.delayRule = r }
}

// WithHistory attaches a delivered-message history: the runner records
// every processed delivery into h and commits it on h's epoch grid, so a
// DelayRule holding the same *History (as a HistoryView) can adapt to
// observed traffic while remaining a pure function of the committed prefix.
// The history must be freshly created (NewHistory) per run and its node
// count must match the config. See history.go for the commit semantics.
func WithHistory(h *History) Option {
	return func(rn *Runner) { rn.history = h }
}

// WithMaxTime bounds the virtual runtime; the run stops once the clock
// passes the bound (protects tests against liveness bugs).
func WithMaxTime(d time.Duration) Option {
	return func(rn *Runner) { rn.maxTime = d }
}

// WithRecorder attaches an observability recorder: the runner creates one
// trace track per node driven by the virtual clock (timestamps are delivery
// times, so a fixed-seed run's trace is byte-identical across reruns — and,
// in parallel mode, across worker counts). A nil recorder leaves tracing
// disabled at zero cost. The recorder must not be shared by concurrently
// running Runners.
func WithRecorder(rec *obs.Recorder) Option {
	return func(rn *Runner) { rn.rec = rec }
}

// WithScratch reuses the storage in s across runs; see Scratch.
func WithScratch(s *Scratch) Option {
	return func(rn *Runner) { rn.scratch = s }
}

// WithParallelWindow enables conservative-window parallel execution on a
// pool of `workers` shard workers. The runner partitions the nodes into
// contiguous shards, takes the lookahead bound L to be the latency model's
// declared MinLatency, and executes each [T, T+L) window of events
// concurrently — events inside one lookahead window are causally
// independent across nodes, the classic conservative PDES argument. See
// Runner.Run and README "Parallel simulation" for which
// guarantees survive: parallel runs are deterministic (byte-identical
// across reruns AND across worker counts), but follow a different
// tie-breaking schedule and RNG stream split than the sequential runner, so
// sequential-vs-parallel agreement is δ-window-statistical, not
// byte-identical. workers ≤ 0 keeps the sequential loop.
func WithParallelWindow(workers int) Option {
	return func(rn *Runner) { rn.parWorkers = workers }
}

// resetNodes returns buf zeroed and resized to n, reusing its backing
// array when large enough.
func resetNodes(buf []nodeState, n int) []nodeState {
	if cap(buf) < n {
		return make([]nodeState, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// NewRunner creates a runner for the given processes. procs[i] runs as node
// i; entries may be honest protocols or Byzantine behaviours, and nil
// entries model crashed (mute) nodes.
func NewRunner(cfg node.Config, env Environment, seed int64, procs []node.Process, opts ...Option) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.N > math.MaxInt32 {
		return nil, fmt.Errorf("sim: n=%d exceeds the %d nodes an event can address", cfg.N, math.MaxInt32)
	}
	if len(procs) != cfg.N {
		return nil, fmt.Errorf("sim: have %d processes for n=%d", len(procs), cfg.N)
	}
	r := &Runner{
		cfg:       cfg,
		env:       env,
		procs:     procs,
		stats:     make([]NodeStats, cfg.N),
		maxTime:   30 * time.Minute,
		hasUplink: env.UplinkBytesPerSec > 0,
	}
	for _, o := range opts {
		o(r)
	}
	if s := r.scratch; s != nil {
		// Adopt the scratch buffers; Run hands them back (grown) when the
		// run completes. Stats and envs are never pooled: Result escapes
		// with the stats, and processes may retain their Env beyond the run.
		r.near, r.run, r.keys = s.near[:0], s.run[:0], s.keys
		r.nodes = resetNodes(s.nodes, cfg.N)
		r.curOutMsgs, r.sent = s.outMsgs[:0], s.sent
		if s.rng != nil {
			r.rng = s.rng
			r.rng.Seed(seed)
		}
	}
	if r.nodes == nil {
		r.nodes = make([]nodeState, cfg.N)
	}
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(seed))
		if r.scratch != nil {
			r.scratch.rng = r.rng
		}
	}
	for _, p := range procs {
		if p != nil {
			r.live++
		}
	}
	if r.history != nil && r.history.n != cfg.N {
		return nil, fmt.Errorf("sim: history has n=%d, config has n=%d", r.history.n, cfg.N)
	}
	r.envs = make([]simEnv, cfg.N)
	for i := range r.envs {
		r.envs[i] = simEnv{r: r, id: node.ID(i)}
	}
	if r.parWorkers > 0 {
		if err := r.setupParallel(seed); err != nil {
			return nil, err
		}
		return r, nil
	}
	if r.rec != nil {
		r.tracks = make([]*obs.Track, cfg.N)
		for i := range r.tracks {
			r.tracks[i] = r.rec.NewTrack(fmt.Sprintf("node-%d", i), &r.obsNow)
		}
	}
	return r, nil
}

// simEnv is the node.Env implementation handed to each process. One is
// allocated per node per run (never per event).
type simEnv struct {
	r  *Runner
	id node.ID
}

// shard returns the node's shard under parallel execution, nil under the
// sequential loop.
func (e *simEnv) shard() *shard {
	if pr := e.r.par; pr != nil {
		return pr.shards[pr.shardOf[e.id]]
	}
	return nil
}

func (e *simEnv) Self() node.ID { return e.id }
func (e *simEnv) N() int        { return e.r.cfg.N }
func (e *simEnv) F() int        { return e.r.cfg.F }

// Track implements node.Tracing: the node's virtual-clock trace track, or
// nil when no recorder is attached.
func (e *simEnv) Track() *obs.Track {
	if e.r.tracks == nil {
		return nil
	}
	return e.r.tracks[e.id]
}

// step returns the delivery context e's calls act on, and whether they fall
// inside e's own processing step.
func (e *simEnv) step() (*stepState, bool) {
	st := &e.r.stepState
	if sh := e.shard(); sh != nil {
		st = &sh.stepState
	}
	return st, st.inStep && e.id == st.curNode
}

func (e *simEnv) Send(to node.ID, m node.Message) { e.send(int32(to), int32(to)+1, m) }
func (e *simEnv) Broadcast(m node.Message)        { e.send(0, int32(e.r.cfg.N), m) }

// send records an outgoing message, sized here, and buffers it; it is flushed
// (with bandwidth and latency applied) once the current processing step ends.
func (e *simEnv) send(lo, hi int32, m node.Message) {
	st, own := e.step()
	om := outMsg{lo: lo, hi: hi, rec: st.sent.put(m, m.WireSize()+e.r.env.MACBytes, e.id)}
	if own {
		st.curOutMsgs = append(st.curOutMsgs, om)
		return
	}
	// Sends outside a step (shouldn't happen for well-behaved processes) leave
	// once the node is free, and no earlier than the executor's clock: an idle
	// node's busyUntil lies in the past, and in a parallel window a departure
	// before the window start would undercut the committed horizon.
	free := e.r.nodes[e.id].busyUntil
	if sh := e.shard(); sh != nil {
		sh.dispatch(e.id, om, max(free, sh.windowStart))
	} else {
		e.r.dispatch(e.id, om, max(free, e.r.now))
	}
}

func (e *simEnv) Output(v any) {
	s := &e.r.stats[e.id]
	s.Output = append(s.Output, v)
	if st, own := e.step(); own {
		st.curOutput = true
	}
}

func (e *simEnv) Halt() {
	if e.r.nodes[e.id].halted {
		return
	}
	e.r.nodes[e.id].halted = true
	e.r.stats[e.id].Halted = true
	if sh := e.shard(); sh != nil {
		sh.halts++ // live accounting is folded in at the window barrier
	} else {
		e.r.live--
	}
	if st, own := e.step(); own {
		st.curHalt = true
	}
}

func (e *simEnv) ChargeCompute(c node.ComputeCost) {
	if st, own := e.step(); own {
		st.curCharge.Accumulate(c)
	}
}

// depart books a message leaving `from` no earlier than ready — bandwidth
// serialization on the sender's uplink, traffic accounting — and returns
// its arrival time: departure plus sampled latency plus the delay rule's.
func (r *Runner) depart(from, to node.ID, m *sent, ready time.Duration, rng *rand.Rand) time.Duration {
	ns, st := &r.nodes[from], &r.stats[from]
	st.MsgsSent++
	st.BytesSent += int64(m.size)
	left := max(ready, ns.uplinkFree)
	if r.hasUplink {
		left += time.Duration(float64(m.size) / r.env.UplinkBytesPerSec * float64(time.Second))
	}
	ns.uplinkFree = left
	at := left + r.env.Latency.Latency(from, to, rng)
	if r.delayRule != nil {
		at += r.delayRule(left, from, to, m.msg)
	}
	return at
}

// dispatch enqueues a staged send's deliveries, leaving at ready or later.
func (r *Runner) dispatch(from node.ID, om outMsg, ready time.Duration) {
	m := r.sent.at(om.rec)
	m.base = r.seq + 1 - uint64(om.lo)
	r.seq += uint64(om.hi - om.lo)
	for to := om.lo; to < om.hi; to++ {
		at := r.depart(from, node.ID(to), m, ready, r.rng)
		r.push(&event{at: at, rec: om.rec, to: to}, m.base+uint64(to))
	}
}

// seqOf returns e's sequence number.
func (r *Runner) seqOf(e *event) uint64 { return r.sent.at(e.rec).base + uint64(e.to) }

const (
	// seqBucketShift sets the sequential calendar's bucket width, 2^19 ns ≈
	// 0.52 ms: at n=1000 the fullest bucket is 16 k events, a run whose
	// events and sort keys stay in the L2 cache.
	seqBucketShift = 19
	// nearMin keeps a short queue out of the calendar altogether: until the
	// near heap first holds this many events it takes every push, and a run
	// that never does is a plain heap. An engaged calendar clears 64 KiB of
	// bucket heads and spends a 1 KiB chunk on each sparse bucket, ~0.4 MB a
	// run: protocol runs peaking under 1 k pending lose by it (FIN n=8 at 749
	// +27 %; BenchmarkSimCore n=4/16 and the n=8 golden cells peak at 16–821),
	// 1–2 k buys no time for 1.2–3× the bytes (FIN n=10, Delphi n=16), 3 k up
	// wins (FIN n=16 at 5 k −15 %, Delphi n=40 at 11 k −15 %).
	nearMin = 2048
)

// push queues a delivery, seq its sequence number. Once the calendar is
// engaged, events at or before the bucket being drained — zero or sub-bucket
// latency, out-of-step sends — go to the near heap, which next merges with
// that bucket's run, and events beyond it to the calendar.
func (r *Runner) push(e *event, seq uint64) {
	if r.cal == nil && len(r.near) >= nearMin {
		// Engage the calendar for the rest of the run, the scratch's if it
		// holds one.
		if s := r.scratch; s != nil && s.cal != nil {
			r.cal, s.cal = s.cal, nil
		} else {
			r.cal = &calendar{width: 1 << seqBucketShift}
		}
	}
	if r.cal != nil {
		if idx := int64(e.at >> seqBucketShift); idx > r.cal.base {
			r.cal.push(e, idx)
			return
		}
	}
	r.near.push(heapEvent{*e, seq})
	r.nearPeak = max(r.nearPeak, len(r.near))
}

// next removes the earliest pending delivery in (at, seq) order into e, the
// run's head or the near heap's top, and reports whether there was one. A run
// in progress precedes every calendar bucket; once it is drained the
// calendar's earliest bucket becomes the next run, unless the near heap's
// top still precedes that bucket.
func (r *Runner) next(e *event) bool {
	if r.runPos == len(r.run) && r.cal != nil {
		nb := r.cal.next()
		if nb != math.MaxInt64 && (len(r.near) == 0 || int64(r.near[0].at>>seqBucketShift) >= nb) {
			r.run = r.cal.take(nb, r.run[:0])
			r.runPos = 0
			r.runPeak = max(r.runPeak, len(r.run))
			r.sortRun()
		}
	}
	if r.runPos < len(r.run) {
		head := &r.run[uint32(r.keys[r.runPos])]
		if len(r.near) == 0 || head.at < r.near[0].at || head.at == r.near[0].at && r.seqOf(head) < r.near[0].seq {
			*e = *head
			r.runPos++
			return true
		}
	}
	if len(r.near) == 0 {
		return false
	}
	*e = r.near[0].event // copied where it lies: pop's by-value result takes a detour over the stack
	r.near.pop()
	return true
}

// sortRun fills keys[:len(run)] with run's indices in (at, seq) order, each
// under the bits of at its bucket leaves open: key = at%width<<32 | index. Two
// stable counting passes of ten bits order the keys by at in linear time, 10
// ns an event at 16 k against a comparison sort's 80; under radixMin events
// zeroing and summing the counters costs more than comparing (26 against 13
// ns at 64, 15 against 18 at 128). Events of equal at then stand in take, not
// seq, order (chunks chain newest first): each such group is sorted by seq,
// looked up in the arena.
func (r *Runner) sortRun() {
	const radixMin = 128
	run, n := r.run, len(r.run)
	if cap(r.keys) < 2*n {
		r.keys = make([]uint64, 2*cap(run))
	}
	r.keys = r.keys[:2*n]
	keys, tmp := r.keys[:n], r.keys[n:]
	for i := range run {
		keys[i] = uint64(run[i].at&(1<<seqBucketShift-1))<<32 | uint64(i)
	}
	if n < radixMin {
		slices.Sort(keys)
	} else {
		for shift, src, dst := 32, keys, tmp; shift < 32+seqBucketShift; shift, src, dst = shift+10, dst, src {
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
	}
	bySeq := func(a, b uint64) int { return cmp.Compare(r.seqOf(&run[uint32(a)]), r.seqOf(&run[uint32(b)])) }
	for i, j := 0, 1; j <= n; j++ {
		if j == n || keys[j]>>32 != keys[i]>>32 {
			if j-i > 1 {
				slices.SortFunc(keys[i:j], bySeq)
			}
			i = j
		}
	}
}

// endStep closes the step opened at virtual time t and flushes its staged
// sends: they leave the node once processing completes.
func (r *Runner) endStep(id node.ID, t, base time.Duration) {
	ready := r.finishStep(r, id, t, base)
	for _, om := range r.curOutMsgs {
		r.dispatch(id, om, ready)
	}
	r.inStep = false
}

// deliver processes one delivery event; it reports false when the run is
// over (time bound hit or every live process halted).
func (r *Runner) deliver(e *event) bool {
	r.now = e.at
	r.obsNow = int64(e.at)
	if r.now > r.maxTime {
		return false
	}
	to := node.ID(e.to)
	if r.nodes[to].halted || r.procs[to] == nil {
		return true
	}
	m := r.sent.at(e.rec)
	from := node.ID(m.from)
	if h := r.history; h != nil {
		h.observe(e.at)
		h.record(from)
	}
	r.events++
	r.stats[to].MsgsRecv++
	r.beginStep(to)
	r.procs[to].Deliver(from, m.msg)
	r.endStep(to, e.at, r.env.Cost.messageCost(int(m.size)))
	return r.live > 0
}

// Run executes the simulation until the event queue drains, all processes
// halt, or the virtual-time bound is hit.
func (r *Runner) Run() *Result {
	if r.par != nil {
		r.par.runWindows()
	} else {
		// Initialise all processes at t=0.
		for i, p := range r.procs {
			if p == nil {
				continue
			}
			r.beginStep(node.ID(i))
			p.Init(&r.envs[i])
			r.endStep(node.ID(i), 0, 0)
		}
		var e event
		for r.next(&e) {
			if !r.deliver(&e) {
				break
			}
		}
	}
	res := &Result{Stats: r.stats, Time: r.now, Events: r.events}
	for i := range r.stats {
		res.TotalBytes += r.stats[i].BytesSent
		res.TotalMsgs += r.stats[i].MsgsSent
	}
	if r.rec != nil {
		// Whole-run totals for the metrics registry: pure schedule facts, so
		// they are identical across reruns (and, in parallel mode, across
		// worker counts — unlike the per-shard sim.shard.* diagnostics).
		r.rec.Counter("sim.events").Add(int64(res.Events))
		r.rec.Counter("sim.messages").Add(int64(res.TotalMsgs))
		r.rec.Counter("sim.bytes").Add(res.TotalBytes)
		r.rec.Gauge("sim.virtual_ns").Max(int64(r.now))
	}
	if s := r.scratch; s != nil {
		// Hand the buffers back for the next run, shrunk where this run's
		// peak occupancy left them mostly idle, and the arena released.
		r.sent.release()
		s.sent = r.sent
		s.near = shrunk(r.near, r.nearPeak)
		s.run = shrunk(r.run, r.runPeak)
		s.keys = shrunk(r.keys, 2*r.runPeak)
		// The calendar moved out of the scratch if the run engaged it (so a
		// run that panics strands it instead of leaving it half-drained);
		// either way it is released, which is what shrinks an idle one.
		if r.cal != nil {
			s.cal = r.cal
		}
		if s.cal != nil {
			s.cal.release()
		}
		s.nodes = shrunk(r.nodes, r.cfg.N)
		s.outMsgs = shrunk(r.curOutMsgs, r.outPeak)
		if r.par != nil {
			r.par.handback(s)
		}
	}
	return res
}
