package runtime

import (
	"cmp"
	"context"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"delphi/internal/auth"
	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/wire"
)

// flushEvery bounds how many inbound frames a driver, or a node's drivers
// together if it holds writes (see Write side), process before pending
// output is forced out (and the context checked), so a never-idle inbox
// cannot defer sends or cancellation indefinitely.
const flushEvery = 64

// Driver runs one protocol process over a transport. Messages are
// authenticated, decoded (carved from the driver's wire.Arena) and delivered
// sequentially; outputs are recorded in order (Outputs); Halt stops the loop.
//
// With batching on (the default), the driver coalesces every frame the
// process emits for one destination during one protocol step (processing
// one inbound frame or envelope, or Init) into one sealed batch envelope
// (see BatchType). Batches are flushed whenever the inbox goes momentarily
// idle (so a node about to block never withholds traffic its peers are
// waiting for; its own batch goes first, and what it triggers rides along),
// when the process halts, and at the latest every flushEvery inbound
// frames. The receiving driver unpacks envelopes back into per-message
// deliveries in order, so per-link FIFO is preserved end to end.
type Driver struct {
	cfg   node.Config
	id    node.ID
	proc  node.Process
	tr    Transport
	reg   *wire.Registry
	auth  *auth.Auth
	outs  []any       // every Output, in order (see Outputs)
	outAt []time.Time // when each was made
	halt  chan struct{}
	once  sync.Once
	err   error // the first message that failed to encode

	// core is the node's tcp core when it holds writes (see Write side), set
	// by RunCluster.
	core *tcpTransport

	batch bool
	rec   Recycler // tr's buffer pool, when it has one
	*driverMem
	own       driverMem // the driverMem of a driver its slot lends none
	selfSent  int       // how many of pend have gone to this node already
	pendCount int       // (frame, destination) pairs awaiting flush

	// Tolerated faults (see Fault), each mirrored into obsFaults.
	faults    [numFaults]atomic.Uint64
	obsFaults [numFaults]*obs.Counter

	// Observability handles; all nil (and every call on them free) unless
	// WithDriverObs attached a recorder.
	obsTrack       *obs.Track
	obsFlushes     *obs.Counter
	obsFlushFrames *obs.Counter
}

// driverMem is the memory a driver reuses from message to message: what
// messages are carved from, and the send side's buffers. A session's fabric
// slot keeps one from trial to trial (see slotOf), and Run resets it when it
// starts, so a delivered or sent message lives until its trial ends.
type driverMem struct {
	arena  wire.Arena // what inbound messages are carved from
	sent   wire.Arena // what the process sends is carved from; encoded at send
	out    []byte     // pending frames back to back (see send), then an envelope being sent
	pend   []pending  // frames awaiting flush, in send order
	gather [][]byte   // one destination's frames, reused across flushes
}

// pending is a frame awaiting flush and its destinations [lo, hi).
type pending struct {
	frame  []byte
	lo, hi node.ID
}

// Fault names one kind of event a driver tolerates and counts instead of
// failing: the protocols treat each as a lost or delayed message. A stale
// epoch's frames are filtered before the MAC (see Endpoint), so in a closed
// cluster FaultBadMAC means a forgery or a keying bug.
type Fault int

const (
	FaultBadMAC      Fault = iota // inbound frame failed authentication
	FaultUndecodable              // authenticated frame of no registered type
	FaultBadBatch                 // authenticated but malformed envelope
	FaultSend                     // transport refused a send, or bad destination
	numFaults
)

// faultCounters names each Fault's recorder counter.
var faultCounters = [numFaults]string{"driver.bad_mac", "driver.undecodable", "driver.bad_batch", "driver.send_errors"}

// Faults holds one count per Fault.
type Faults [numFaults]uint64

func (d *Driver) fault(k Fault) {
	d.faults[k].Add(1)
	d.obsFaults[k].Inc()
}

// Faults returns the driver's fault counts so far.
func (d *Driver) Faults() (f Faults) {
	for k := range f {
		f[k] = d.faults[k].Load()
	}
	return f
}

// DriverOption customises a Driver.
type DriverOption func(*Driver)

// WithDriverBatching toggles per-step outbound frame batching (default
// on). Off seals every message as its own frame, for A/B benchmarks and
// bisection.
func WithDriverBatching(on bool) DriverOption {
	return func(d *Driver) { d.batch = on }
}

// WithDriverObs attaches a recorder and this node's trace track. The track
// is exposed to the process via node.Tracing, so protocol-phase spans land
// on it; the driver itself emits flush instants and batch counters. A nil
// recorder (the default) keeps every hot-path hook a nil no-op.
func WithDriverObs(rec *obs.Recorder, track *obs.Track) DriverOption {
	return func(d *Driver) {
		d.obsTrack = track
		d.obsFlushes = rec.Counter("driver.flushes")
		d.obsFlushFrames = rec.Counter("driver.flush_frames")
		for k, name := range faultCounters {
			d.obsFaults[k] = rec.Counter(name)
		}
	}
}

// NewDriver wires a process to a transport. The auth verifies inbound
// frames (transports seal outbound ones with the same keys).
func NewDriver(cfg node.Config, id node.ID, proc node.Process, tr Transport, a *auth.Auth, reg *wire.Registry, opts ...DriverOption) *Driver {
	d := &Driver{
		cfg:   cfg,
		id:    id,
		proc:  proc,
		tr:    tr,
		reg:   reg,
		auth:  a,
		halt:  make(chan struct{}),
		batch: true,
	}
	d.driverMem = &d.own
	for _, opt := range opts {
		opt(d)
	}
	d.rec, _ = tr.(Recycler)
	return d
}

// Outputs returns the process's outputs in Output order. Output runs on
// Run's goroutine, so read them once Run has returned.
func (d *Driver) Outputs() []any { return d.outs }

// driverEnv is the Driver as its process's node.Env.
type driverEnv Driver

func (e *driverEnv) Self() node.ID { return e.id }
func (e *driverEnv) N() int        { return e.cfg.N }
func (e *driverEnv) F() int        { return e.cfg.F }

// Track implements node.Tracing: the process's phase spans share the
// driver's per-node track (nil when observability is off).
func (e *driverEnv) Track() *obs.Track { return e.obsTrack }

func (e *driverEnv) SentArena() *wire.Arena { return &e.sent }

func (e *driverEnv) Send(to node.ID, m node.Message) { (*Driver)(e).send(m, to, to+1) }

func (e *driverEnv) Broadcast(m node.Message) { (*Driver)(e).send(m, 0, node.ID(e.cfg.N)) }

func (e *driverEnv) Output(v any) {
	e.outs = append(e.outs, v)
	e.outAt = append(e.outAt, time.Now())
}

func (e *driverEnv) Halt() { e.once.Do(func() { close(e.halt) }) }

func (e *driverEnv) ChargeCompute(node.ComputeCost) {
	// Real CPU time is spent for real on the live runtime.
}

// send appends m's frame to out and files it, with its destinations [lo, hi),
// on the pending list — or transmits it to each when batching is off. A frame
// is shared, and out reused once nothing is pending: Send keeps no frame.
func (d *Driver) send(m node.Message, lo, hi node.ID) {
	n := len(d.out)
	out, err := wire.Append(d.out, m)
	switch {
	case err != nil:
		d.err = cmp.Or(d.err, fmt.Errorf("encode %T: %w", m, err))
	case !d.batch:
		for to := lo; to < hi; to++ {
			d.transmit(to, out[n:])
		}
	case lo < 0 || hi <= lo || int(hi) > d.cfg.N: // a Send to no node (hi may wrap)
		d.fault(FaultSend)
	default:
		d.pend = append(d.pend, pending{out[n:], lo, hi})
		d.pendCount += int(hi - lo)
		n = len(out)
	}
	d.out = out[:n] // only pending frames stay
}

// transmit hands one frame or envelope to the transport. A failure to reach
// an individual peer is expected under faults; the protocol layer tolerates
// it as a (permanent) delay, so it is counted, not returned.
func (d *Driver) transmit(to node.ID, frame []byte) {
	if err := d.tr.Send(to, frame); err != nil {
		d.fault(FaultSend)
	}
}

// flush sends every destination its pending frames: a single frame as-is,
// two or more as one envelope. Destinations are visited in id order so the
// wire schedule is a deterministic function of the protocol's sends.
func (d *Driver) flush() {
	if d.pendCount > 0 {
		d.obsFlushes.Inc()
		d.obsTrack.Instant("driver.flush", int64(d.pendCount), 0)
		for to := range node.ID(d.cfg.N) {
			d.flushTo(to)
		}
	}
	clear(d.pend)
	d.pend, d.out, d.selfSent = d.pend[:0], d.out[:0], 0
}

// flushTo gathers to's pending frames, in send order, and sends them. It
// reports whether there were any.
func (d *Driver) flushTo(to node.ID) bool {
	from := 0
	if to == d.id {
		from, d.selfSent = d.selfSent, len(d.pend)
	}
	frames := d.gather[:0]
	for _, p := range d.pend[from:] {
		if p.lo <= to && to < p.hi {
			frames = append(frames, p.frame)
		}
	}
	if d.gather = frames; len(frames) == 0 {
		return false
	}
	frame := frames[0]
	if n := len(d.out); len(frames) > 1 {
		d.out = AppendBatch(d.out, frames)
		frame, d.out = d.out[n:], d.out[:n] // past every pending frame, and dead once sent
	}
	d.transmit(to, frame)
	d.obsFlushFrames.Add(int64(len(frames)))
	d.pendCount -= len(frames)
	return true
}

// deliverOne decodes and delivers a single protocol frame; it reports
// false once the process has halted.
func (d *Driver) deliverOne(from node.ID, frame []byte) bool {
	if m, err := d.reg.DecodeIn(frame, &d.arena); err != nil {
		d.fault(FaultUndecodable)
	} else {
		d.proc.Deliver(from, m)
	}
	select {
	case <-d.halt:
		return false
	default:
		return true
	}
}

// deliverFrame authenticates an inbound frame, unpacks it if it is a batch
// envelope, delivers its messages in order, and recycles the frame buffer.
// It reports false once the process has halted.
func (d *Driver) deliverFrame(f Frame) bool {
	live := true
	opened, err := d.auth.Open(f.From, f.Data)
	switch {
	case err != nil:
		d.fault(FaultBadMAC)
	case IsBatch(opened):
		if UnpackBatch(opened, func(inner []byte) bool {
			live = d.deliverOne(f.From, inner)
			return live
		}) != nil {
			d.fault(FaultBadBatch)
		}
	default:
		live = d.deliverOne(f.From, opened)
	}
	// The decoded messages were carved from the arena with every byte they
	// keep, so the buffer can go back to the transport's pool.
	if d.rec != nil {
		d.rec.Recycle(f.Data)
	}
	return live
}

// writeFaults counts each failed write of the node's buffers as a send fault.
func (d *Driver) writeFaults(failed int) {
	d.faults[FaultSend].Add(uint64(failed))
	d.obsFaults[FaultSend].Add(int64(failed))
}

// Run initialises the process and delivers messages until the process
// halts, the context is cancelled, or the transport closes. It returns the
// first message that failed to encode, else the context's error, if any.
func (d *Driver) Run(ctx context.Context) error {
	// The driver holds its node's writes (see Write side) from here to the
	// deferred release, but for its idle waits in Recv.
	d.core.hold()
	defer func() { d.writeFaults(d.core.release()) }()
	d.arena.Reset() // out and pend are empty: every exit flushes
	d.sent.Reset()
	d.proc.Init((*driverEnv)(d))
	select {
	case <-d.halt:
		d.flush()
		return d.err
	default:
	}
	// stop unblocks a Recv when the context is cancelled or the process
	// halts from another step; finished retires the watcher on exit.
	finished := make(chan struct{})
	defer close(finished)
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		select {
		case <-ctx.Done():
		case <-d.halt:
		case <-finished:
		}
	}()
	delivered := 0
	for {
		f, ok := d.tr.TryRecv()
		if !ok && d.batch {
			if d.flushTo(d.id) {
				// Output for this node itself lands in its inbox at once:
				// take it first, so what it triggers joins the frames still
				// pending for the peers (one envelope, not two). A busy
				// self-loop still flushes every flushEvery frames.
				continue
			}
			// The inbox looks dry, but frames are often only a scheduler
			// slice away (a read loop holding a frame it has not enqueued
			// yet). So yield once before sealing what is pending: frames
			// that land now are processed into the same batch, turning what
			// would be several single-frame writes into one envelope. The
			// yield does not look at what is pending: a batching driver
			// whose self-flush took nothing yields here even with no output
			// pending, before it falls through to the blocking receive.
			goruntime.Gosched()
			f, ok = d.tr.TryRecv()
		}
		if !ok {
			// Idle: everything the last steps produced goes out before the
			// node blocks (its last busy driver writes it), as peers may need
			// it to make the progress that produces our next inbound frame.
			d.flush()
			d.writeFaults(d.core.release())
			delivered = 0
			f, ok = d.tr.Recv(stop)
			if d.core.hold(); !ok {
				return cmp.Or(d.err, ctx.Err()) // halted, cancelled or closed
			}
		}
		if !d.deliverFrame(f) {
			d.flush()
			return d.err
		}
		if delivered++; delivered >= flushEvery || d.core.delivered() {
			d.flush()
			d.writeFaults(d.core.writeAll())
			delivered = 0
			if err := ctx.Err(); err != nil {
				return cmp.Or(d.err, err)
			}
		}
	}
}
