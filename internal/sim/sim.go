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
// Every run is one executor, the conservative-window one (parallel.go): the
// latency model's declared MinLatency is the window width, the nodes are
// split into contiguous shards, and each window's events, causally
// independent across nodes, are delivered shard by shard. With one worker
// (the default) Run's goroutine runs the single shard itself;
// WithParallelWindow spreads the shards over a pool. The result is
// byte-identical at any worker count (TestParallelDeterminism,
// bench.TestSimGoldenByteIdentity).
//
// The event loop is built for sweep throughput. Pending deliveries are 16-byte
// pointer-free event values (no per-event allocation; message, sender and
// sequence numbers sit once per Send or Broadcast call in the sending shard's
// arena) filed by window in a calendar (calendar.go) of fixed-size chunks; a
// window is ordered in linear radix passes over 8-byte keys. Per-node
// bookkeeping lives in one contiguous nodeState slab, each node's Env is
// allocated once per run, and a delivery is a direct Deliver call with no
// per-event closure; Scratch lets a session reuse all of this storage across
// runs.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"

	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/wire"
)

// event is a message delivery scheduled at a virtual time, stored by value, 16
// bytes and no pointer: rec names the sending call's record — its shard's
// arena above recBits, its index there below — which has the sender and the
// sequence numbers; node ids are int32 (NewRunner bounds n).
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

// sentArena hands out a shard's sent records and is the only place the run
// holds a reference. Slab k holds 1<<(k+sentShift) records, and the slab table
// is a fixed array: a shard resolves another shard's rec while that shard
// appends, which an append-grown table would not survive.
type sentArena struct {
	slabs [recBits - sentShift]*[]sent
	held  int    // slabs[:held] are allocated
	used  uint32 // records handed out this run
	id    uint32 // the shard's arena id, shifted above recBits
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

// eventHeap is an inlined 4-ary min-heap of events ordered by at: a calendar's
// beyond-horizon overflow, which hands events back to the ring by at alone.
// The value layout and the manual sift loops keep it allocation-free.
type eventHeap []event

// push adds e to the heap, sifting it towards the root.
func (h *eventHeap) push(e event) {
	q := append(*h, e)
	*h = q
	for i := len(q) - 1; i > 0; {
		p := (i - 1) >> 2
		if q[i].at >= q[p].at {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() event {
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
		for j := c + 1; j < min(c+4, n); j++ {
			if q[j].at < q[m].at {
				m = j
			}
		}
		if q[m].at >= last.at {
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
// parallel slices. sendSeq counts the deliveries the node has scheduled: its
// per-sender sequence numbers keep event order independent of the sharding.
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
// lower bound on every latency they will ever sample, and NewRunner requires
// it: the executor's conservative window is this floor, since events less
// than one floor apart are causally independent across nodes. A model whose
// MinLatency overstates the true minimum makes a run fail loudly on the
// first violation rather than silently diverge.
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

// Scratch is a Runner's reusable storage: the per-node bookkeeping slab and
// RNG streams, and each shard's calendar (whose chunks also stage its
// cross-shard sends), sent arena and window buffers. A session hands the
// same Scratch to consecutive NewRunner calls, and run.Run the last one-shot
// run's, so a sweep performs the growth allocations once instead of once per
// trial. A Scratch must not be shared by concurrently running Runners; reuse
// never changes results (every buffer is fully reset) — only allocation
// counts. It holds no message but in each shard's arena for its nodes' sends
// (simEnv.SentArena), which the next run resets: the sent-record arenas are
// the only other storage with a pointer in it, and hand-back clears them.
//
// Retained capacity is bounded, not monotone: after each run every backing
// array whose peak occupancy fit in an eighth of its capacity is halved
// (repeatedly, down to scratchShrinkMin), mirroring the runtime inbox-ring
// rule. A single n=1000+ trial in a mixed matrix therefore stops pinning
// its high-water storage once the sweep returns to paper-scale cells, while
// steady-state sweeps sit inside the 8x hysteresis band and never thrash.
type Scratch struct {
	nodes   []nodeState
	shards  []*shard
	shardOf []uint8 // node -> shard
	rands   []*rand.Rand
	srcs    []sm64
	// clean marks a completed hand-back; a run that panicked leaves it false
	// so the next run rebuilds instead of adopting half-mutated arenas.
	clean bool
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
// record capacity over every shard; the shrink policy's observable for tests.
func (s *Scratch) retainedEvents() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.cal.retained() + cap(sh.run) + cap(sh.keys) + sh.sent.retained()
	}
	return total
}

// Runner drives a set of processes to completion in virtual time.
type Runner struct {
	cfg   node.Config
	env   Environment
	procs []node.Process

	width   time.Duration // window width == lookahead == MinLatency
	workers int           // WithParallelWindow's ask
	shards  []*shard
	shardOf []uint8 // node -> shard
	rands   []*rand.Rand
	work    []chan winCmd // the pool's; nil for one worker
	done    chan int
	closed  bool

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

	hasUplink bool // hoisted out of the per-message dispatch: is the uplink branch live

	// Observability (WithRecorder): one trace track per node on its shard's
	// virtual clock, and a "sim" track on simNow that records one instant
	// per window (width and event count, both independent of the worker
	// count); the wall-clock barrier wait goes to the metrics registry only,
	// never the trace. tracks == nil means disabled.
	rec      *obs.Recorder
	tracks   []*obs.Track
	simTrack *obs.Track
	simNow   int64
	barrier  *obs.Histogram
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
	sent       sentArena // every send by this shard's nodes
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

// WithHistory attaches a delivered-message history: the runner counts
// every processed delivery and commits the counts into h on h's epoch grid,
// so a DelayRule holding the same *History (as a HistoryView) can adapt to
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
// times, so a fixed-seed run's trace is byte-identical across reruns and
// worker counts). A nil recorder leaves tracing disabled at zero cost. The
// recorder must not be shared by concurrently running Runners.
func WithRecorder(rec *obs.Recorder) Option {
	return func(rn *Runner) { rn.rec = rec }
}

// WithScratch reuses the storage in s across runs; see Scratch.
func WithScratch(s *Scratch) Option {
	return func(rn *Runner) { rn.scratch = s }
}

// WithParallelWindow runs the window executor's shards on a pool of
// `workers` goroutines, one shard each, while Run's goroutine keeps the
// window barrier; at most one shard per node and maxWorkers in all. Events inside one lookahead window are causally
// independent across nodes, the classic conservative PDES argument, so the
// shards of a window run concurrently. It changes the wall time and nothing
// else: a run is byte-identical at any worker count. workers ≤ 1 runs one
// shard on Run's goroutine, which is also what a Runner without this option
// does.
func WithParallelWindow(workers int) Option {
	return func(rn *Runner) { rn.workers = workers }
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
// entries model crashed (mute) nodes. The latency model must declare a
// positive MinLatency (MinLatencyModel), the executor's window width, and n
// is at most maxParN−1, the nodes a sequence number can name.
func NewRunner(cfg node.Config, env Environment, seed int64, procs []node.Process, opts ...Option) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.N
	if n >= maxParN {
		return nil, fmt.Errorf("sim: n=%d exceeds the %d nodes a sequence number can name", n, maxParN-1)
	}
	if len(procs) != n {
		return nil, fmt.Errorf("sim: have %d processes for n=%d", len(procs), n)
	}
	ml, ok := env.Latency.(MinLatencyModel)
	if !ok {
		return nil, fmt.Errorf("sim: the window executor needs a latency model with a MinLatency floor; %T does not declare one", env.Latency)
	}
	if ml.MinLatency() <= 0 {
		return nil, fmt.Errorf("sim: the window executor needs a positive lookahead, got %v", ml.MinLatency())
	}
	r := &Runner{
		cfg:       cfg,
		env:       env,
		procs:     procs,
		width:     ml.MinLatency(),
		stats:     make([]NodeStats, n),
		maxTime:   30 * time.Minute,
		hasUplink: env.UplinkBytesPerSec > 0,
	}
	for _, o := range opts {
		o(r)
	}
	if r.history != nil && r.history.n != n {
		return nil, fmt.Errorf("sim: history has n=%d, config has n=%d", r.history.n, n)
	}
	for _, p := range procs {
		if p != nil {
			r.live++
		}
	}
	r.setup(seed)
	r.envs = make([]simEnv, n)
	for i := range r.envs {
		r.envs[i] = simEnv{r: r, id: node.ID(i), sh: r.shards[r.shardOf[i]]}
	}
	return r, nil
}

// simEnv is the node.Env implementation handed to each process. One is
// allocated per node per run (never per event).
type simEnv struct {
	r  *Runner
	id node.ID
	sh *shard // the shard the node runs on
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

func (e *simEnv) SentArena() *wire.Arena { return &e.sh.lent }

// step returns the delivery context e's calls act on, and whether they fall
// inside e's own processing step.
func (e *simEnv) step() (*stepState, bool) {
	st := &e.sh.stepState
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
	// once the node is free, and no earlier than the window start: an idle
	// node's busyUntil lies in the past, and a departure before the window
	// start would undercut the committed horizon.
	e.sh.dispatch(e.id, om, max(e.r.nodes[e.id].busyUntil, e.sh.windowStart))
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
	e.sh.halts++ // live accounting is folded in at the window barrier
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
// serialization on the sender's uplink, traffic accounting — and returns its
// arrival time: departure plus latency, drawn from the sender's own RNG
// stream, plus the delay rule's.
func (r *Runner) depart(from, to node.ID, m *sent, ready time.Duration) time.Duration {
	ns, st := &r.nodes[from], &r.stats[from]
	st.MsgsSent++
	st.BytesSent += int64(m.size)
	left := max(ready, ns.uplinkFree)
	if r.hasUplink {
		left += time.Duration(float64(m.size) / r.env.UplinkBytesPerSec * float64(time.Second))
	}
	ns.uplinkFree = left
	at := left + r.env.Latency.Latency(from, to, r.rands[from])
	if r.delayRule != nil {
		at += r.delayRule(left, from, to, m.msg)
	}
	return at
}

// Run executes the simulation until the event queue drains, all processes
// halt, or the virtual-time bound is hit.
func (r *Runner) Run() *Result {
	r.runWindows()
	res := &Result{Stats: r.stats, Time: r.now, Events: r.events}
	for i := range r.stats {
		res.TotalBytes += r.stats[i].BytesSent
		res.TotalMsgs += r.stats[i].MsgsSent
	}
	if r.rec != nil {
		// Whole-run totals for the metrics registry: pure schedule facts, so
		// they are identical across reruns and worker counts — unlike the
		// per-shard sim.shard.* diagnostics.
		r.rec.Counter("sim.events").Add(int64(res.Events))
		r.rec.Counter("sim.messages").Add(int64(res.TotalMsgs))
		r.rec.Counter("sim.bytes").Add(res.TotalBytes)
		r.rec.Gauge("sim.virtual_ns").Max(int64(r.now))
	}
	if s := r.scratch; s != nil {
		r.handback(s)
	}
	return res
}
