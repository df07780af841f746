package runtime

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"

	"delphi/internal/auth"
	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/wire"
)

// flushEvery bounds how many inbound frames the driver processes before it
// force-flushes pending outbound batches (and checks its context), so a
// never-idle inbox cannot defer sends or cancellation indefinitely.
const flushEvery = 64

// Driver runs one protocol process over a transport. Messages are decoded,
// authenticated, and delivered sequentially; outputs are published on a
// channel; Halt stops the loop.
//
// With batching on (the default), the driver coalesces every frame the
// process emits for one destination during one protocol step — processing
// one inbound frame or envelope, or Init — into a single batch envelope
// (see BatchType), sealed and sent as one transport write. Batches are
// flushed whenever the inbox goes momentarily idle (so a node about to
// block never withholds traffic its peers are waiting for; the node's own
// batch goes first, and what it triggers rides along), when the process
// halts, and at the latest every flushEvery inbound frames. The
// receiving driver unpacks envelopes back into per-message deliveries in
// arrival order, so per-link FIFO is preserved end to end.
type Driver struct {
	cfg   node.Config
	id    node.ID
	proc  node.Process
	tr    Transport
	reg   *wire.Registry
	auth  *auth.Auth
	out   chan any
	halt  chan struct{}
	once  sync.Once
	errMu sync.Mutex
	err   error

	batch     bool
	rec       Recycler   // tr's buffer pool, when it has one
	pend      [][][]byte // per-destination frames awaiting flush
	pendCount int
	scratch   []byte // envelope build buffer, reused across flushes

	// Tolerated faults (see Fault), each mirrored into obsFaults.
	faults    [numFaults]atomic.Uint64
	obsFaults [numFaults]*obs.Counter

	// Observability handles; all nil (and every call on them free) unless
	// WithDriverObs attached a recorder.
	obsTrack       *obs.Track
	obsFlushes     *obs.Counter
	obsFlushFrames *obs.Counter
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
// on). Off reproduces the one-write-per-message wire behaviour, for A/B
// benchmarks and bisection.
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
		out:   make(chan any, 16),
		halt:  make(chan struct{}),
		batch: true,
	}
	for _, opt := range opts {
		opt(d)
	}
	d.rec, _ = tr.(Recycler)
	if d.batch {
		d.pend = make([][][]byte, cfg.N)
	}
	return d
}

// Outputs returns the channel of protocol outputs. It is closed when the
// process halts or the driver stops.
func (d *Driver) Outputs() <-chan any { return d.out }

// driverEnv implements node.Env over the transport.
type driverEnv struct {
	d *Driver
}

func (e *driverEnv) Self() node.ID { return e.d.id }
func (e *driverEnv) N() int        { return e.d.cfg.N }
func (e *driverEnv) F() int        { return e.d.cfg.F }

// Track implements node.Tracing: the process's phase spans share the
// driver's per-node track (nil when observability is off).
func (e *driverEnv) Track() *obs.Track { return e.d.obsTrack }

func (e *driverEnv) Send(to node.ID, m node.Message) { e.d.send(m, to, to+1) }

func (e *driverEnv) Broadcast(m node.Message) { e.d.send(m, 0, node.ID(e.d.cfg.N)) }

func (e *driverEnv) Output(v any) {
	select {
	case e.d.out <- v:
	default:
		// Never block a protocol step on a slow consumer.
		go func() { e.d.out <- v }()
	}
}

func (e *driverEnv) Halt() {
	e.d.once.Do(func() { close(e.d.halt) })
}

func (e *driverEnv) ChargeCompute(node.ComputeCost) {
	// Real CPU time is spent for real on the live runtime.
}

func (d *Driver) setErr(err error) {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	if d.err == nil {
		d.err = err
	}
}

// Err returns the first internal error the driver hit, if any.
func (d *Driver) Err() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.err
}

// send encodes m once and files that one frame on the pending batch of every
// destination in [lo, hi) — or transmits it to each when batching is off.
// Sharing is safe because nothing downstream writes to a frame (see
// Transport).
func (d *Driver) send(m node.Message, lo, hi node.ID) {
	frame, err := wire.Encode(m)
	if err != nil {
		d.setErr(fmt.Errorf("encode: %w", err))
		return
	}
	for to := lo; to < hi; to++ {
		switch {
		case !d.batch:
			d.transmit(to, frame)
		case int(to) < 0 || int(to) >= d.cfg.N:
			d.fault(FaultSend)
		default:
			d.pend[to] = append(d.pend[to], frame)
			d.pendCount++
		}
	}
}

// transmit hands one frame or envelope to the transport. A failure to reach
// an individual peer is expected under faults; the protocol layer tolerates
// it as a (permanent) delay, so it is counted, not returned.
func (d *Driver) transmit(to node.ID, frame []byte) {
	if err := d.tr.Send(to, frame); err != nil {
		d.fault(FaultSend)
	}
}

// flush sends every pending per-destination batch: single frames as-is, two
// or more as one envelope. Destinations are visited in id order so the
// wire schedule is a deterministic function of the protocol's sends.
func (d *Driver) flush() {
	if d.pendCount == 0 {
		return
	}
	d.obsFlushes.Inc()
	d.obsTrack.Instant("driver.flush", int64(d.pendCount), 0)
	for to := range d.pend {
		d.flushTo(to)
	}
}

// flushTo sends to's pending batch, if any.
func (d *Driver) flushTo(to int) {
	frames := d.pend[to]
	if len(frames) == 0 {
		return
	}
	frame := frames[0]
	if len(frames) > 1 {
		d.scratch = AppendBatch(d.scratch[:0], frames)
		frame = d.scratch
	}
	d.transmit(node.ID(to), frame)
	d.obsFlushFrames.Add(int64(len(frames)))
	d.pendCount -= len(frames)
	for i := range frames {
		frames[i] = nil
	}
	d.pend[to] = frames[:0]
}

// deliverOne decodes and delivers a single protocol frame; it reports
// false once the process has halted.
func (d *Driver) deliverOne(from node.ID, frame []byte) bool {
	m, err := d.reg.DecodeFramed(frame)
	if err != nil {
		d.fault(FaultUndecodable)
		return true
	}
	d.proc.Deliver(from, m)
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
	// The decoded messages copied every byte they keep, so the buffer can
	// go back to the transport's pool.
	if d.rec != nil {
		d.rec.Recycle(f.Data)
	}
	return live
}

// Run initialises the process and delivers messages until the process
// halts, the context is cancelled, or the transport closes.
func (d *Driver) Run(ctx context.Context) error {
	env := &driverEnv{d: d}
	defer close(d.out)
	d.proc.Init(env)
	select {
	case <-d.halt:
		d.flush()
		return nil
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
			if len(d.pend[d.id]) > 0 {
				// Some of the pending output is for this node itself, and a
				// self-send lands in the inbox at once: take it first. What
				// it triggers joins the batches still pending for the peers,
				// who then get one envelope where they would have got two.
				// A process that keeps itself busy this way still flushes to
				// its peers every flushEvery frames.
				d.flushTo(int(d.id))
				continue
			}
			// The inbox looks dry, but frames are often only a scheduler
			// slice away (a read loop holding a frame it has not enqueued
			// yet). With output pending, yield once before sealing it:
			// frames that land now are processed into the same batch,
			// turning what would be several single-frame writes into one
			// envelope. With nothing pending there is nothing to coalesce,
			// so the driver goes straight to the blocking receive.
			goruntime.Gosched()
			f, ok = d.tr.TryRecv()
		}
		if !ok {
			// Idle: everything the last steps produced goes out before this
			// node blocks — peers may need it to make the progress that
			// produces our next inbound frame.
			d.flush()
			delivered = 0
			f, ok = d.tr.Recv(stop)
			if !ok {
				if err := ctx.Err(); err != nil {
					return err
				}
				return nil // halted or transport closed
			}
		}
		if !d.deliverFrame(f) {
			d.flush()
			return nil
		}
		if delivered++; delivered >= flushEvery {
			d.flush()
			delivered = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
}
