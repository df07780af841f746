package runtime

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"delphi/internal/auth"
	"delphi/internal/node"
	"delphi/internal/obs"
)

// MuxFabric is the slice of a persistent fabric (Hub, TCPNet) an InstanceMux
// needs: the cluster size and each slot's inbox, whose frames it routes and
// whose buffer pool it recycles into.
type MuxFabric interface {
	N() int
	slot(id node.ID) *inbox
}

// Discard turns slot id's drain on or off. While it is on, every frame put
// into the slot's inbox, and every frame queued there when it starts, is
// recycled at once, on the goroutine that puts it: a session's slots between
// runs, and its crashed slots during one. Off, frames queue for the slot's
// next driver again. Not for a fabric an InstanceMux routes.
func Discard(fab MuxFabric, id node.ID, on bool) {
	b := fab.slot(id)
	if !on {
		b.route.Store(nil)
		return
	}
	if b.drop == nil {
		b.drop = func(f Frame) { b.recycle(f.Data) }
	}
	b.route.Store(&b.drop)
	for f, ok := b.tryGet(); ok; f, ok = b.tryGet() {
		b.recycle(f.Data)
	}
}

// InstanceMux lets any number of concurrent protocol instances share one
// persistent fabric. Each instance seals frames with its own epoch key and
// sends them through tagged endpoints (TaggedEndpoint on the fabric), which
// append the instance's 8-byte tag after the MAC. The mux starts no
// goroutine: a route on every fabric slot's inbox hands each frame, on the
// goroutine that puts it (a tcp link's read loop, or the sender on a Hub and
// for self-sends), to the owning instance's slot inbox by that plaintext
// tag, stripped of it, so the driver sees exactly the sealed frame its epoch
// authenticator expects.
//
// Frames whose tag matches no live instance (stragglers of a decided round,
// foreign traffic) or that are too short to carry a tag are counted in
// Stale and their buffers recycled. A frame relabeled with a live
// instance's tag routes there and fails its MAC: authentication never
// depends on the tag.
//
// While attached, the mux is the only consumer of the fabric's inboxes, and
// routing never blocks, so no sender can wedge on a decided instance. Close
// removes the routes, and frames queue in the fabric inboxes again.
type InstanceMux struct {
	fab      MuxFabric
	stale    atomic.Uint64
	obsStale *obs.Counter

	mu     sync.Mutex
	insts  map[uint64]*MuxInstance
	closed bool
}

// Observe mirrors the mux's stale-frame count into the recorder's
// mux.stale_frames counter. Nil recorder leaves the hook a free no-op.
func (m *InstanceMux) Observe(rec *obs.Recorder) {
	m.obsStale = rec.Counter("mux.stale_frames")
}

// NewInstanceMux attaches a mux to the fabric: from here on every frame put
// into a slot's inbox is routed by tag.
func NewInstanceMux(fab MuxFabric) *InstanceMux {
	m := &InstanceMux{fab: fab, insts: make(map[uint64]*MuxInstance)}
	for i := 0; i < fab.N(); i++ {
		id := node.ID(i)
		route := func(f Frame) { m.route(id, f) }
		fab.slot(id).route.Store(&route)
	}
	return m
}

// route hands a frame to its instance's slot inbox, or counts it stale and
// recycles the buffer.
func (m *InstanceMux) route(id node.ID, f Frame) {
	if len(f.Data) < TagSize+auth.MACSize {
		m.discard(id, f.Data)
		return
	}
	tag := binary.LittleEndian.Uint64(f.Data[len(f.Data)-TagSize:])
	m.mu.Lock()
	inst := m.insts[tag]
	m.mu.Unlock()
	if inst == nil {
		m.discard(id, f.Data)
		return
	}
	f.Data = f.Data[:len(f.Data)-TagSize]
	if !inst.slots[id].put(f) {
		// The instance closed between lookup and put; its drain already ran,
		// so this frame is ours to reclaim.
		m.discard(id, f.Data)
	}
}

func (m *InstanceMux) discard(id node.ID, buf []byte) {
	m.stale.Add(1)
	m.obsStale.Inc()
	m.fab.slot(id).recycle(buf)
}

// Register creates the instance for tag: one inbox per fabric slot, fed by
// the routes, whose depth ratchets the fabric slot's high-water gauge. Tags
// must be unique among live instances — sessions use a monotonic round
// counter, so uniqueness is structural.
func (m *InstanceMux) Register(tag uint64) (*MuxInstance, error) {
	inst := &MuxInstance{mux: m, tag: tag, slots: make([]*inbox, m.fab.N())}
	for i := range inst.slots {
		inst.slots[i] = newInbox(64)
		inst.slots[i].hw = m.fab.slot(node.ID(i)).hw
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("runtime: mux closed")
	}
	if _, dup := m.insts[tag]; dup {
		return nil, fmt.Errorf("runtime: instance tag %d already live", tag)
	}
	m.insts[tag] = inst
	return inst, nil
}

// Stale returns the count of frames discarded because no live instance
// claimed them (plus undersized frames). Clean runs leave a small residue:
// a round's last frames, in flight when it is collected.
func (m *InstanceMux) Stale() uint64 { return m.stale.Load() }

// Close removes the routes and refuses further registration; the fabric is
// otherwise untouched. Live instances' inboxes are closed and drained so no
// blocked driver outlives the mux. Idempotent.
func (m *InstanceMux) Close() {
	m.mu.Lock()
	live := m.insts
	m.insts, m.closed = nil, true
	m.mu.Unlock()
	for i := 0; i < m.fab.N(); i++ {
		m.fab.slot(node.ID(i)).route.Store(nil)
	}
	for _, inst := range live {
		inst.Close()
	}
}

// MuxInstance is one protocol instance's view of the shared fabric: a
// per-slot inbox the mux fills, and tagged endpoints for sending.
type MuxInstance struct {
	mux   *InstanceMux
	tag   uint64
	slots []*inbox
	once  sync.Once
}

// Endpoint wraps out — the fabric's tagged endpoint for slot id, carrying
// this instance's tag and epoch authenticator — into the Transport a driver
// runs on: sends go out tagged, receives come from the instance's slot
// inbox, and recycled buffers return to the fabric pool.
func (inst *MuxInstance) Endpoint(id node.ID, out Transport) Transport {
	return &muxEndpoint{inst: inst, id: id, out: out}
}

// Close unregisters the instance and reclaims its inboxes, so a decided
// round releases its buffers while the session lives on. Frames still
// queued, or routed concurrently, are counted stale and their buffers
// recycled. Idempotent and safe alongside routing.
func (inst *MuxInstance) Close() {
	inst.once.Do(func() {
		m := inst.mux
		m.mu.Lock()
		if m.insts[inst.tag] == inst {
			delete(m.insts, inst.tag)
		}
		m.mu.Unlock()
		for id, box := range inst.slots {
			box.close()
			for f, ok := box.tryGet(); ok; f, ok = box.tryGet() {
				m.discard(node.ID(id), f.Data)
			}
		}
	})
}

// muxEndpoint is the per-(instance, slot) Transport handed to a driver.
type muxEndpoint struct {
	inst *MuxInstance
	id   node.ID
	out  Transport
}

var _ Recycler = (*muxEndpoint)(nil)

func (e *muxEndpoint) Send(to node.ID, frame []byte) error { return e.out.Send(to, frame) }

func (e *muxEndpoint) Recv(stop <-chan struct{}) (Frame, bool) {
	return e.inst.slots[e.id].get(stop)
}

func (e *muxEndpoint) TryRecv() (Frame, bool) { return e.inst.slots[e.id].tryGet() }

func (e *muxEndpoint) Recycle(buf []byte) { e.inst.mux.fab.slot(e.id).recycle(buf) }

// Close is a no-op: the instance owns its inboxes (closed by instance GC),
// the fabric owns the wire.
func (e *muxEndpoint) Close() error { return nil }
