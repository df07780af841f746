// Package runtime drives node.Process state machines over real transports:
// an in-memory hub for in-process clusters (the examples) and TCP with
// length-prefixed, HMAC-authenticated frames for multi-process deployments
// (cmd/delphi). The same protocol code that runs under the simulator runs
// here unchanged.
//
// # Frame-buffer ownership
//
// The transports pool buffers, so ownership is strict:
//
//   - A frame given to Send is read-only and not retained after Send
//     returns (transports seal into buffers of their own; the backend delay
//     wrapper copies first), so a driver encodes a broadcast once, into a
//     buffer it reuses as soon as nothing in it is pending.
//   - A frame from Recv/TryRecv is the receiver's until it hands the buffer
//     back with the transport's Recycle, if it ever does, and must not be
//     touched after that. A driver carves decoded messages, bytes and all,
//     from its wire.Arena, so nothing downstream aliases the frame. A
//     session's fabric slot keeps that arena, the one it lends the process
//     for what it sends (wire.Lender), and the driver's send buffers, from
//     run to run: each driver resets them as it starts, so a delivered or
//     sent message lives until its run ends.
//
// # Per-link ordering
//
// Both transports deliver frames from a given sender to a given receiver
// in Send order: the hub's inboxes are FIFO rings that grow instead of
// parking senders, and each direction of a tcp link is one connection with
// serialised writes. A delay wrapper on top may reorder; that is its job. A
// frame a TCP node sends itself is sealed straight into its own inbox.
//
// A TCPNet link is one connection used both ways, wired at construction, so
// the kernel's ACKs ride on reverse traffic. A link that breaks degrades to
// what NewTCP does from the start: each end fails one write, then dials a
// one-way connection (tcp.dial) that the peer's accept loop reads. It stays
// one-way: the acceptor knows the dialer only from unauthenticated frame
// headers, and writing back on their say-so would let a stranger redirect a
// link.
//
// # Read side
//
// A frame takes one goroutine hop from socket to driver. Each connection's
// read loop cuts the stream into frames in a 16 KiB stage and puts each into
// the node's inbox. On a socket it reads inside one long-lived RawConn.Read,
// and once a read leaves the socket empty it waits for readiness instead of
// reading again to see EAGAIN.
//
// # Write side
//
// A TCPNet node writes once per peer for all its drivers' steps. sendFrame
// seals each frame, with its own [sender][len] header, MAC and suffix, into
// the peer's buffer. While any of the node's drivers is in a step (from
// Init, and from each Recv that returns a frame, to its idle flush) the
// buffers only fill; the last driver to go idle writes each in one write,
// as does a driver once the node has delivered flushEvery frames since. A
// send while no driver holds the node, as from a delay timer, writes at
// once. Appends and writes take the peer lock, so per-link FIFO holds. A
// Hub and NewTCP's transport never hold.
//
// # Plaintext suffix
//
// Endpoints of a persistent fabric (Hub, TCPNet) append TagSize plaintext
// bytes after the MAC: a tagged endpoint its instance tag, which an
// InstanceMux's route reads and strips as the frame is put into the slot's
// inbox, on the putting goroutine; a plain endpoint its authenticator's epoch
// id (auth.Epoch), which its own Recv/TryRecv check and strip, so a straggler
// of an earlier run on the fabric is recycled and counted in
// transport.stale_epoch before any MAC is tried. The suffix routes and
// filters; authenticity rests on the MAC alone. NewTCP's transport carries
// none.
package runtime

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"delphi/internal/auth"
	"delphi/internal/node"
	"delphi/internal/obs"
)

// Frame is a received, already-authenticated message frame.
type Frame struct {
	// From is the verified sender.
	From node.ID
	// Data is the sealed frame: type byte plus message body plus MAC.
	Data []byte
}

// TagSize is the length of the plaintext suffix a fabric endpoint appends
// after the MAC: the instance tag of a TaggedEndpoint, the epoch id of a
// plain Endpoint. It is routing metadata, not authenticated payload: an
// InstanceMux strips a tag to pick the destination instance, and a relabeled
// suffix merely routes the frame to a receiver whose key rejects the MAC.
const TagSize = 8

// Transport moves sealed frames between nodes.
type Transport interface {
	// Send transmits an authenticated frame to a peer. The frame slice is
	// read-only to the transport and not retained past the call, so one
	// frame may be sent to many peers.
	Send(to node.ID, frame []byte) error
	// Recv blocks for the next inbound frame, in per-link FIFO order. It
	// reports false when the transport is closed and drained, or when stop
	// closes first; a nil stop never fires.
	Recv(stop <-chan struct{}) (Frame, bool)
	// TryRecv returns the next inbound frame without blocking.
	TryRecv() (Frame, bool)
	// Close shuts the transport down and unblocks Recv.
	Close() error
}

// Recycler is implemented by transports whose Recv frames come from a
// buffer pool: a receiver done with a frame, and every alias into it, may
// hand the buffer back.
type Recycler interface {
	Recycle(buf []byte)
}

// Hub is an in-memory message switch connecting n in-process nodes: each
// node's inbox is a FIFO ring that grows under bursts.
type Hub struct {
	n        int
	inbox    []*inbox
	mem      []driverMem // each node's, kept from run to run (see slotOf)
	drops    atomic.Uint64
	obsDrops *obs.Counter
}

// Observe mirrors the hub's drop and stale-epoch counters and inbox
// high-water marks into the recorder (transport.drops, .stale_epoch,
// .inbox_high_water). Call before traffic starts; a nil recorder leaves the
// hooks free no-ops.
func (h *Hub) Observe(rec *obs.Recorder) {
	h.obsDrops = rec.Counter("transport.drops")
	hw, stale := rec.Gauge("transport.inbox_high_water"), rec.Counter("transport.stale_epoch")
	for _, b := range h.inbox {
		b.hw, b.stale = hw, stale
	}
}

// NewHub creates a hub for n nodes.
func NewHub(n int) *Hub {
	h := &Hub{n: n, inbox: make([]*inbox, n), mem: make([]driverMem, n)}
	for i := range h.inbox {
		h.inbox[i] = newInbox(4*n + 64) // a protocol burst; grows past it
	}
	return h
}

// Endpoint returns node id's transport attached to the hub, sealing with a.
// A persistent hub hands out fresh endpoints for every run it hosts; all of
// id's endpoints share its inbox, each seeing its own epoch.
func (h *Hub) Endpoint(id node.ID, a *auth.Auth) Transport {
	epoch := binary.LittleEndian.AppendUint64(nil, a.Epoch())
	return &endpoint{via: h, id: id, in: h.inbox[id], auth: a, suffix: epoch, want: epoch, owner: h, mem: &h.mem[id]}
}

// TaggedEndpoint is Endpoint for one instance of a multiplexed session: every
// outbound frame carries the 8-byte little-endian instance tag after its MAC,
// so an InstanceMux on the receiving side can route it without trying keys.
func (h *Hub) TaggedEndpoint(id node.ID, a *auth.Auth, tag uint64) Transport {
	return &endpoint{via: h, id: id, in: h.inbox[id], auth: a, suffix: binary.LittleEndian.AppendUint64(nil, tag), owner: h}
}

// N returns the hub's node count.
func (h *Hub) N() int { return h.n }

func (h *Hub) slot(id node.ID) *inbox { return h.inbox[id] }

// Drops returns the number of frames discarded because they arrived after
// Close, so shutdown races can be ruled in or out.
func (h *Hub) Drops() uint64 { return h.drops.Load() }

// Close closes every inbox, unblocking any receiver still draining; senders
// never park. Idempotent; the error is always nil.
func (h *Hub) Close() error {
	for _, b := range h.inbox {
		b.close()
	}
	return nil
}

// sendFrame seals frame into to's inbox; a closed hub drops it, counted.
func (h *Hub) sendFrame(from, to node.ID, a *auth.Auth, frame, suffix []byte) error {
	if int(to) < 0 || int(to) >= h.n {
		return fmt.Errorf("runtime: bad destination %v", to)
	}
	if !h.inbox[to].putSealed(from, to, a, frame, suffix) {
		h.drops.Add(1)
		h.obsDrops.Inc()
	}
	return nil
}

// carrier is what an endpoint sends through and counts losses on: a Hub, or
// a tcp core.
type carrier interface {
	sendFrame(from, to node.ID, a *auth.Auth, frame, suffix []byte) error
	Drops() uint64
}

// endpoint is a node's Transport on a Hub or a tcp core. Send seals with the
// run's authenticator and appends suffix after the MAC; Recv and TryRecv read
// the node's inbox and, with want set, pass on only frames that end in want,
// stripped of it (see Plaintext suffix). Close closes owner: the Hub, or
// NewTCP's core. A TCPNet view has none; its core field names the core
// whose writes its drivers hold (see Write side).
type endpoint struct {
	via          carrier
	id           node.ID
	in           *inbox
	auth         *auth.Auth
	suffix, want []byte
	owner        io.Closer
	core         *tcpTransport
	mem          *driverMem // its slot's, on a Hub or TCPNet (see slotOf)
}

// slotOf returns what tr's fabric slot lends its driver, or nils: the tcp
// core that holds the writes of the node while its drivers are in a step (see
// Write side), and the driver memory the slot keeps from run to run. An
// InstanceMux's endpoint lends no memory: its concurrent rounds share the slot.
func slotOf(tr Transport) (*tcpTransport, *driverMem) {
	switch e := tr.(type) {
	case *endpoint:
		return e.core, e.mem
	case *muxEndpoint:
		core, _ := slotOf(e.out)
		return core, nil
	}
	return nil, nil
}

var _ Recycler = (*endpoint)(nil)

func (e *endpoint) Send(to node.ID, frame []byte) error {
	return e.via.sendFrame(e.id, to, e.auth, frame, e.suffix)
}

func (e *endpoint) Recv(stop <-chan struct{}) (Frame, bool) { return e.in.recv(stop, true, e.want) }

func (e *endpoint) TryRecv() (Frame, bool) { return e.in.recv(nil, false, e.want) }

func (e *endpoint) Recycle(buf []byte) { e.in.recycle(buf) }

// Drops returns the carrier's count of observably lost frames.
func (e *endpoint) Drops() uint64 { return e.via.Drops() }

func (e *endpoint) Close() error {
	if e.owner == nil {
		return nil
	}
	return e.owner.Close()
}

// maxFrameSize bounds a sealed frame: sendFrame refuses to write more, and a
// header announcing more drops the connection before any buffer is fetched.
const maxFrameSize = 64 << 20

// DialFunc dials a peer's listen address. It exists so tests can inject
// slow, blackholed, or instrumented dials; production code uses net.Dial.
type DialFunc func(addr string) (net.Conn, error)

// tcpTransport is a node's tcp core: its listener, its connections to the
// peers, carrying 4-byte length-prefixed frames [sender u32][len u32][sealed
// frame], and its inbox. NewTCP's transport and each TCPNet view are
// endpoints on a core.
type tcpTransport struct {
	self  node.ID
	addrs []string
	ln    net.Listener
	dial  DialFunc

	in  *inbox
	mem driverMem // the node's driver memory, kept from run to run (see slotOf)
	// drops counts frames observably lost by this core: a body read that
	// failed mid-frame, an oversized frame, or a frame that raced shutdown.
	drops atomic.Uint64
	// eagains counts socket reads that found nothing there (rare; pinned).
	eagains atomic.Uint64
	// busy counts the node's drivers in a step, since the frames they
	// delivered since the buffers were last written (see Write side).
	busy, since atomic.Int32

	// Observability handles (see Observe); nil means off and free.
	obsDrops, obsLateCloses, obsWrites *obs.Counter
	obsDials                           *obs.Track

	// peers holds per-destination dial/write state, each slot under its own
	// lock, so a stalled dial or a write blocked on one saturated peer never
	// delays sends to other peers, nor Close, which only takes mu.
	peers []peerConn

	// mu guards closed and the connection registries only. It is never held
	// across a dial or a blocking write.
	mu       sync.Mutex
	closed   bool
	dialed   map[node.ID]net.Conn
	accepted map[net.Conn]struct{}
	wg       sync.WaitGroup
}

// peerConn is one destination's outbound state: the connection (a fabric's
// wired link, else nil until dialed), the dial/write lock serialising access
// to it, and the sealed frames not yet written (see Write side). Holding mu
// across the dial is what makes concurrent sends to an unreachable peer
// singleflight: the second sender waits for the first dial's verdict.
type peerConn struct {
	mu  sync.Mutex
	c   net.Conn
	out []byte
}

// newTCPCore builds the transport machinery and starts its accept loop.
// links, when non-nil, holds this node's end of a pre-wired connection to
// each peer (nil at self): the connection it writes to and also reads from.
func newTCPCore(self node.ID, addrs []string, ln net.Listener, dial DialFunc, links []net.Conn) *tcpTransport {
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	t := &tcpTransport{
		self:     self,
		addrs:    addrs,
		ln:       ln,
		dial:     dial,
		in:       newInbox(4*len(addrs) + 64), // a protocol burst, as a hub's; grows past it
		peers:    make([]peerConn, len(addrs)),
		dialed:   make(map[node.ID]net.Conn),
		accepted: make(map[net.Conn]struct{}),
	}
	for to, c := range links {
		if c != nil {
			t.peers[to].c, t.dialed[node.ID(to)] = c, c
			t.wg.Add(1)
			go t.readLoop(c)
		}
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t
}

// NewTCP creates a TCP transport for node self; addrs lists every node's
// listen address (index = node id). The listener must already be bound to
// addrs[self].
func NewTCP(self node.ID, addrs []string, ln net.Listener, a *auth.Auth) Transport {
	t := newTCPCore(self, addrs, ln, nil, nil)
	return &endpoint{via: t, id: self, in: t.in, auth: a, owner: t}
}

func (t *tcpTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			// Raced Close: nobody will close this conn later.
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.accepted[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.readLoop(conn)
	}
}

func (t *tcpTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	// Prune the connection from the accepted set on exit, or each re-dial
	// would leak one entry for the lifetime of the core.
	defer func() {
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
		conn.Close()
	}()
	r := linkReader{t: t, buf: make([]byte, stageSize)}
	if sc, ok := conn.(syscall.Conn); ok {
		if rc, err := sc.SyscallConn(); err == nil {
			r.drainRaw(conn, rc)
			return
		}
	}
	for r.split(conn.Read(r.space())) {
	}
}

// stageSize is a link's staging buffer: one read takes up to this many bytes
// of back-to-back frames off the socket. eofPoll is how often a waiting
// socket is read once more, for an EOF or reset that arrived with the last
// data and so raised no readiness edge of its own.
const (
	stageSize = 16 << 10
	eofPoll   = time.Second
)

// linkReader splits a connection's byte stream into [sender u32][len u32]
// [body] frames and puts each into the inbox, copied out of a staging buffer
// once it is whole. The stage grows (doubling) only while a frame larger than
// it arrives, so a header alone pins nothing.
type linkReader struct {
	t      *tcpTransport
	buf    []byte
	lo, hi int // buf[lo:hi] is read and not yet handed on
}

// space returns the stage's free tail for the next read, after moving the
// unparsed bytes to the front: into a doubled stage when one frame fills it,
// into a fresh 16 KiB one once a larger frame has passed.
func (r *linkReader) space() []byte {
	pending, need := r.buf[r.lo:r.hi], 8
	if len(pending) >= 8 {
		need += int(binary.LittleEndian.Uint32(pending[4:]))
	}
	if size := len(r.buf); len(pending) == size || size > stageSize && need <= stageSize {
		r.buf = make([]byte, max(stageSize, min(2*size, need)))
	} else if r.lo == 0 {
		return r.buf[r.hi:]
	}
	r.hi, r.lo = copy(r.buf, pending), 0
	return r.buf[r.hi:]
}

// split takes n freshly read bytes and the read's error, and hands every
// whole frame in the stage to the inbox. It reports whether the link goes on,
// counting the frame it stops under as lost: one over maxFrameSize, one the
// closed inbox refused, or one whose body the failed read cut off.
func (r *linkReader) split(n int, err error) bool {
	r.hi += n
	ok := err == nil
	for r.hi-r.lo >= 8 {
		rec := r.buf[r.lo:r.hi]
		size := binary.LittleEndian.Uint32(rec[4:])
		if size <= maxFrameSize && len(rec) < 8+int(size) {
			break // the body is still arriving
		}
		if size > maxFrameSize || !r.t.in.put(Frame{
			From: node.ID(binary.LittleEndian.Uint32(rec)),
			Data: append(r.t.in.getBuf(int(size))[:0], rec[8:8+size]...),
		}) {
			ok = false
			break
		}
		r.lo += 8 + int(size)
	}
	if !ok && r.hi-r.lo >= 8 {
		r.t.drops.Add(1)
		r.t.obsDrops.Inc()
	}
	return ok
}

// drainRaw feeds the splitter inside the socket's RawConn.Read. A read that
// did not fill the stage left the socket empty, so the callback then waits
// for readiness instead of reading again to see EAGAIN: Go clears readiness
// only when RawConn.Read starts, so data arriving after that read still wakes
// the wait. After a full read, which may have left bytes behind, and at the
// eofPoll deadline, Read is entered again and reads first; a Close ends it.
// An end of stream found by the first read after a deadline is a late close.
func (r *linkReader) drainRaw(conn net.Conn, rc syscall.RawConn) {
	more, polled := true, false
	read := func(fd uintptr) bool {
		p := r.space()
		n, err := syscall.Read(int(fd), p)
		late := polled
		polled = false
		if err == syscall.EAGAIN {
			r.t.eagains.Add(1)
			return false
		}
		if n == 0 && err == nil {
			err = io.EOF
		}
		if late && n <= 0 {
			r.t.obsLateCloses.Inc()
		}
		more = r.split(max(n, 0), err)
		return !more || n == len(p)
	}
	for more {
		conn.SetReadDeadline(time.Now().Add(eofPoll))
		err := rc.Read(read)
		if polled = errors.Is(err, os.ErrDeadlineExceeded); err != nil && !polled {
			r.split(0, err)
			return
		}
	}
}

// connTo returns to's connection, dialing under the peer lock (held by the
// caller) if absent. The transport-wide mu is taken only around the closed
// check and registry update — never across the dial — so one unreachable
// peer cannot stall sends to others or Close.
func (t *tcpTransport) connTo(to node.ID, pc *peerConn) (net.Conn, error) {
	if pc.c != nil {
		return pc.c, nil
	}
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("runtime: transport closed")
	}
	c, err := t.dial(t.addrs[to])
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	if t.closed {
		// Close ran while we were dialing; it cannot see this conn, so we
		// must not install it.
		t.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("runtime: transport closed")
	}
	t.dialed[to] = c
	t.mu.Unlock()
	pc.c = c
	t.obsDials.Instant("tcp.dial", int64(t.self), int64(to))
	return c, nil
}

// sendFrame seals one frame from this node (from is always self) into peer
// to's buffer, and writes the buffer unless a driver holds the node. A frame
// to self skips the socket: it is sealed into this node's own inbox, as the
// hub seals every frame.
func (t *tcpTransport) sendFrame(_, to node.ID, a *auth.Auth, frame, tag []byte) error {
	if int(to) < 0 || int(to) >= len(t.addrs) {
		return fmt.Errorf("runtime: bad destination %v", to)
	}
	if to == t.self {
		if !t.in.putSealed(to, to, a, frame, tag) {
			t.drops.Add(1) // closed core: the run is over
			t.obsDrops.Inc()
		}
		return nil
	}
	if n := len(frame) + auth.MACSize + len(tag); n > maxFrameSize {
		// The receiver would drop the connection, and with it a fabric link
		// both ends write to: refuse here and leave the link up.
		return fmt.Errorf("runtime: frame to %v is %d bytes sealed, over the %d limit", to, n, maxFrameSize)
	}
	pc := &t.peers[to]
	// The peer's lock serialises its buffer, dial and write, leaving every
	// other peer, and Close, untouched.
	pc.mu.Lock()
	defer pc.mu.Unlock()
	at := len(pc.out)
	buf := append(pc.out, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = a.AppendSeal(to, buf, frame)
	buf = append(buf, tag...)
	binary.LittleEndian.PutUint32(buf[at:], uint32(t.self))
	binary.LittleEndian.PutUint32(buf[at+4:], uint32(len(buf)-at-8))
	if pc.out = buf; t.busy.Load() > 0 {
		return nil
	}
	return t.writeOut(to, pc)
}

// writeOut writes to's buffer in one write, dialing (or re-dialing) as
// needed, and empties it whatever the outcome. Caller holds pc.mu.
func (t *tcpTransport) writeOut(to node.ID, pc *peerConn) error {
	buf := pc.out
	if pc.out = buf[:0]; cap(buf) > inboxBufCap {
		pc.out = nil // one jumbo write must not pin a jumbo buffer for good
	}
	c, err := t.connTo(to, pc)
	if err != nil {
		return fmt.Errorf("runtime: dial %v: %w", to, err)
	}
	t.obsWrites.Inc()
	if _, err := c.Write(buf); err != nil {
		// Forget the connection and close it (Close may have closed it
		// under a writer stuck on a saturated peer): the next write re-dials.
		pc.c = nil
		t.mu.Lock()
		if t.dialed[to] == c {
			delete(t.dialed, to)
		}
		t.mu.Unlock()
		c.Close()
		return err
	}
	return nil
}

// hold and release bracket a driver's step; the last driver out writes every
// peer's buffer, and release returns how many writes failed. delivered
// counts a frame a driver delivered and reports when flushEvery have passed
// since the last write. All are no-ops on the nil core of a Driver whose
// node does not hold writes.
func (t *tcpTransport) hold() {
	if t != nil {
		t.busy.Add(1)
	}
}

func (t *tcpTransport) release() (failed int) {
	if t == nil || t.busy.Add(-1) > 0 {
		return 0
	}
	return t.writeAll()
}

func (t *tcpTransport) delivered() bool { return t != nil && t.since.Add(1) >= flushEvery }

// writeAll writes every peer's buffer, returning how many writes failed.
func (t *tcpTransport) writeAll() (failed int) {
	if t == nil {
		return 0
	}
	t.since.Store(0)
	for to := range t.peers {
		pc := &t.peers[to]
		pc.mu.Lock()
		if len(pc.out) > 0 && t.writeOut(node.ID(to), pc) != nil {
			failed++
		}
		pc.mu.Unlock()
	}
	return failed
}

// Drops returns the count of observably lost inbound frames (see the field
// doc). Monotonic; readable after Close.
func (t *tcpTransport) Drops() uint64 { return t.drops.Load() }

// Close never blocks on a peer lock, so a send stalled in a slow dial or a
// saturated write cannot delay shutdown: it closes the listener and every
// registered connection (unblocking those writers with an error), waits
// for the read loops, then closes the inbox so receivers drain and exit.
// A dial still in flight re-checks closed before installing its conn.
func (t *tcpTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	err := t.ln.Close()
	for _, c := range t.dialed {
		c.Close()
	}
	for c := range t.accepted {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	t.in.close()
	return err
}

// TCPNet is a persistent loopback TCP fabric for an n-node cluster: one
// listener and one transport core per node and one connection per node pair,
// made once and reused across any number of cluster runs. Each run takes
// per-epoch endpoint views carrying its own authenticator, so two epochs
// sharing the fabric never authenticate each other's frames, while links and
// read loops persist: a session binds and connects once, not once per trial.
type TCPNet struct {
	addrs []string
	cores []*tcpTransport
}

// wireTimeout bounds each accept NewTCPNet makes while wiring its mesh.
const wireTimeout = 10 * time.Second

// NewTCPNet binds n loopback listeners and wires the mesh before any accept
// loop runs: for every pair i < j it dials j's listener, accepts that
// connection itself, and gives one end to core i and the other to core j as
// the link both write to and read from. A failure closes everything opened.
func NewTCPNet(n int) (*TCPNet, error) { return newTCPNet(n, net.Listener.Accept) }

// newTCPNet is NewTCPNet with the accept call injected, so tests can break
// a wiring step or slip a stranger's connection in front of it.
func newTCPNet(n int, accept func(net.Listener) (net.Conn, error)) (_ *TCPNet, err error) {
	p := &TCPNet{addrs: make([]string, n), cores: make([]*tcpTransport, n)}
	var open []io.Closer
	defer func() {
		if err != nil {
			for _, c := range open {
				c.Close()
			}
		}
	}()
	lns := make([]*net.TCPListener, n)
	links := make([][]net.Conn, n) // links[i][j] is node i's end of the i–j link
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("runtime: bind node %d: %w", i, err)
		}
		open = append(open, ln)
		lns[i], p.addrs[i], links[i] = ln.(*net.TCPListener), ln.Addr().String(), make([]net.Conn, n)
	}
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			out, err := net.Dial("tcp", p.addrs[j])
			if err != nil {
				return nil, fmt.Errorf("runtime: wire %d–%d: %w", i, j, err)
			}
			open = append(open, out)
			// Whoever else connected to the port first is not the link: a
			// connection is installed only if it is the one dialed above.
			for links[j][i] == nil {
				lns[j].SetDeadline(time.Now().Add(wireTimeout))
				in, err := accept(lns[j])
				if err != nil {
					return nil, fmt.Errorf("runtime: wire %d–%d: %w", i, j, err)
				}
				if in.RemoteAddr().String() != out.LocalAddr().String() {
					in.Close()
					continue
				}
				open = append(open, in)
				links[i][j], links[j][i] = out, in
			}
		}
		lns[j].SetDeadline(time.Time{})
	}
	for i, ln := range lns {
		p.cores[i] = newTCPCore(node.ID(i), p.addrs, ln, nil, links[i])
	}
	return p, nil
}

// N returns the fabric's node count.
func (p *TCPNet) N() int { return len(p.cores) }

// Observe attaches the recorder to every core: transport.drops counts lost
// inbound frames across the fabric, transport.writes socket writes (one
// peer's buffer each), transport.late_closes peer closes seen only at an
// eofPoll deadline, transport.inbox_high_water ratchets the deepest inbox
// backlog, transport.links is the number of wired links, and lazy dials land
// as tcp.dial on a shared "transport" track: on a fabric each one means a
// wired link broke. Call before traffic starts; a nil recorder is free.
func (p *TCPNet) Observe(rec *obs.Recorder) {
	dials := rec.SharedTrack("transport")
	for _, c := range p.cores {
		c.obsDrops, c.obsLateCloses = rec.Counter("transport.drops"), rec.Counter("transport.late_closes")
		c.obsWrites = rec.Counter("transport.writes")
		c.obsDials = dials
		c.in.hw, c.in.stale = rec.Gauge("transport.inbox_high_water"), rec.Counter("transport.stale_epoch")
	}
	rec.Gauge("transport.links").Set(int64(len(p.cores) * (len(p.cores) - 1) / 2))
}

// Endpoint returns node id's transport view for one epoch (cluster run),
// sealing outbound frames with a and marking them with a's epoch id. Closing
// the view is a no-op. Frames of an earlier epoch still crossing the fabric
// carry another id: its Recv recycles and counts them (transport.stale_epoch).
func (p *TCPNet) Endpoint(id node.ID, a *auth.Auth) Transport {
	c, epoch := p.cores[id], binary.LittleEndian.AppendUint64(nil, a.Epoch())
	return &endpoint{via: c, id: id, in: c.in, auth: a, suffix: epoch, want: epoch, core: c, mem: &c.mem}
}

// TaggedEndpoint is Endpoint for one instance of a multiplexed session: every
// outbound frame carries the 8-byte little-endian instance tag after its MAC,
// so an InstanceMux on the receiving side routes it without trying keys.
func (p *TCPNet) TaggedEndpoint(id node.ID, a *auth.Auth, tag uint64) Transport {
	c := p.cores[id]
	return &endpoint{via: c, id: id, in: c.in, auth: a, suffix: binary.LittleEndian.AppendUint64(nil, tag), core: c}
}

// Recycle returns a frame buffer to node id's core pool. It is the
// slot-addressed form of the endpoint Recycler, for receivers that consume
// frames for many slots from one place.
func (p *TCPNet) Recycle(id node.ID, buf []byte) { p.cores[id].in.recycle(buf) }

func (p *TCPNet) slot(id node.ID) *inbox { return p.cores[id].in }

// Recv receives the next frame addressed to node id, from the core inbox
// every epoch's view shares. Semantics match Transport.Recv.
func (p *TCPNet) Recv(id node.ID, stop <-chan struct{}) (Frame, bool) {
	return p.cores[id].in.get(stop)
}

// Drops sums the cores' observable frame-drop counters; sessions snapshot
// it around each trial to surface transport loss in the trial's stats.
func (p *TCPNet) Drops() uint64 {
	var total uint64
	for _, c := range p.cores {
		total += c.Drops()
	}
	return total
}

// Close tears the whole fabric down: listeners, connections, read loops.
func (p *TCPNet) Close() error {
	var first error
	for _, c := range p.cores {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
