package runtime

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"delphi/internal/auth"
	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/wire"
)

// These tests pin the tcp write side's hold (see Write side): a TCPNet node
// buffers what its drivers send while any of them is in a step and writes
// each peer's buffer once the last goes idle, or once its drivers have
// delivered flushEvery frames. Node 0 of a small fabric runs one driver per
// mux instance through RunCluster; the other nodes run none, and the test
// puts node 0's inbound frames straight into the instance's slot inbox, so
// every socket write the fabric counts is one of node 0's.

// holdMsg is a test message: its body is its wire body.
type holdMsg string

func (m holdMsg) Type() uint8                    { return wire.TypeTestPing }
func (m holdMsg) WireSize() int                  { return len(m) }
func (m holdMsg) MarshalBinary() ([]byte, error) { return []byte(m), nil }

func holdRegistry(t *testing.T) *wire.Registry {
	t.Helper()
	reg := wire.NewRegistry()
	if err := reg.Register(wire.TypeTestPing, func(b []byte) (node.Message, error) { return holdMsg(b), nil }); err != nil {
		t.Fatal(err)
	}
	return reg
}

// gatedProc sends every message it is delivered on to each peer, signals
// entered and then blocks until the test opens its gate: the test decides
// how long each step, and so each hold, lasts. "halt" halts it instead.
type gatedProc struct {
	env     node.Env
	entered chan string
	gate    chan struct{}
}

func newGated() *gatedProc {
	return &gatedProc{entered: make(chan string), gate: make(chan struct{})}
}

func (p *gatedProc) Init(env node.Env) { p.env = env }

func (p *gatedProc) Deliver(_ node.ID, m node.Message) {
	if m == holdMsg("halt") {
		p.env.Halt()
		return
	}
	for to := 1; to < p.env.N(); to++ {
		p.env.Send(node.ID(to), m)
	}
	p.entered <- string(m.(holdMsg))
	<-p.gate
}

// holdRig is an n-node TCPNet with a mux attached and its writes counted.
type holdRig struct {
	fab    *TCPNet
	mux    *InstanceMux
	reg    *wire.Registry
	writes *obs.Counter
}

func newHoldRig(t *testing.T, n int) *holdRig {
	t.Helper()
	fab, err := NewTCPNet(n)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	fab.Observe(rec)
	r := &holdRig{fab: fab, mux: NewInstanceMux(fab), reg: holdRegistry(t), writes: rec.Counter("transport.writes")}
	t.Cleanup(func() {
		r.mux.Close()
		fab.Close()
	})
	return r
}

// holdLane is one mux instance whose node 0 runs proc under RunCluster.
type holdLane struct {
	inst  *MuxInstance
	auths []*auth.Auth
	proc  *gatedProc
	done  chan *ClusterResult
}

// run starts proc as node 0 of a new instance tagged tag, until it halts or
// ctx ends.
func (r *holdRig) run(t *testing.T, ctx context.Context, tag uint64, proc node.Process) *holdLane {
	t.Helper()
	inst, err := r.mux.Register(tag)
	if err != nil {
		t.Fatal(err)
	}
	n := r.fab.N()
	l := &holdLane{inst: inst, auths: muxAuths(t, n, tag), done: make(chan *ClusterResult, 1)}
	l.proc, _ = proc.(*gatedProc)
	procs := make([]node.Process, n)
	procs[0] = proc
	go func() {
		res, err := RunCluster(ctx, node.Config{N: n}, procs, []byte(fmt.Sprintf("mux-epoch-%d", tag)), r.reg,
			WithTransports(func(id node.ID, a *auth.Auth) (Transport, error) {
				return inst.Endpoint(id, r.fab.TaggedEndpoint(id, a, tag)), nil
			}),
			WithTransportRelease(func() {}))
		if err != nil {
			t.Error(err)
		}
		l.done <- res
	}()
	return l
}

// put delivers body to the lane's node 0 as a sealed frame from node 1.
func (l *holdLane) put(t *testing.T, body string) {
	t.Helper()
	frame, err := wire.Encode(holdMsg(body))
	if err != nil {
		t.Fatal(err)
	}
	if !l.inst.slots[0].putSealed(1, 0, l.auths[1], frame, nil) {
		t.Fatal("instance inbox closed")
	}
}

// step opens the gate of a driver blocked in a step, puts body into its
// inbox and waits for the step that delivers it: by then every frame the
// driver delivered before has been counted.
func (l *holdLane) step(t *testing.T, body string) {
	t.Helper()
	l.proc.gate <- struct{}{}
	l.enter(t, body)
}

// enter puts body into the lane's inbox and waits for its step to start.
func (l *holdLane) enter(t *testing.T, body string) {
	t.Helper()
	l.put(t, body)
	select {
	case got := <-l.proc.entered:
		if got != body {
			t.Fatalf("step delivered %q, want %q", got, body)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("no step for %q", body)
	}
}

// recv returns the message bodies of node peer's next frame from node 0 on
// this lane, unpacking an envelope.
func (l *holdLane) recv(t *testing.T, peer node.ID) []string {
	t.Helper()
	stop := make(chan struct{})
	timer := time.AfterFunc(10*time.Second, func() { close(stop) })
	defer timer.Stop()
	f, ok := l.inst.slots[peer].get(stop)
	if !ok {
		t.Fatalf("node %d: no frame from node 0", peer)
	}
	opened, err := l.auths[peer].Open(0, f.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !IsBatch(opened) {
		return []string{string(opened[1:])}
	}
	var bodies []string
	if err := UnpackBatch(opened, func(m []byte) bool { bodies = append(bodies, string(m[1:])); return true }); err != nil {
		t.Fatal(err)
	}
	return bodies
}

// halt ends a lane whose driver is blocked in a step and returns its result.
func (l *holdLane) halt(t *testing.T) *ClusterResult {
	t.Helper()
	l.put(t, "halt")
	l.proc.gate <- struct{}{}
	select {
	case res := <-l.done:
		return res
	case <-time.After(10 * time.Second):
		t.Fatal("driver did not halt")
		return nil
	}
}

// busy is node 0's count of drivers in a step.
func (r *holdRig) busy() int32 { return r.fab.cores[0].busy.Load() }

// TestHoldOneWritePerPeer: two instances' drivers on one node, both in a
// step, leave one write per peer between them, and that write carries both
// instances' frames.
func TestHoldOneWritePerPeer(t *testing.T) {
	const n = 3
	r := newHoldRig(t, n)
	x, y := r.run(t, context.Background(), 1, newGated()), r.run(t, context.Background(), 2, newGated())
	x.enter(t, "x")
	y.enter(t, "y")
	before := r.writes.Value()
	x.proc.gate <- struct{}{}
	y.proc.gate <- struct{}{}
	for peer := node.ID(1); peer < n; peer++ {
		for _, l := range []*holdLane{x, y} {
			if got := l.recv(t, peer); len(got) != 1 {
				t.Errorf("node %d got %q from node 0, want one message", peer, got)
			}
		}
	}
	if got := r.writes.Value() - before; got != n-1 {
		t.Errorf("node 0 made %d writes for two instances' steps, want %d: one per peer", got, n-1)
	}
	x.enter(t, "x2")
	y.enter(t, "y2")
	x.halt(t)
	y.halt(t)
	if b := r.busy(); b != 0 {
		t.Errorf("hold count %d after both drivers halted, want 0", b)
	}
}

// TestHoldTakingTurnsWritesWithinFlushEvery: two drivers that take turns
// being in a step never let the node go idle, yet the node writes once its
// drivers have delivered flushEvery frames between them, and not before.
func TestHoldTakingTurnsWritesWithinFlushEvery(t *testing.T) {
	const n = 2
	r := newHoldRig(t, n)
	x, y := r.run(t, context.Background(), 1, newGated()), r.run(t, context.Background(), 2, newGated())
	x.enter(t, "x0")
	y.enter(t, "y0")
	before := r.writes.Value()
	lanes := [2]*holdLane{x, y}
	for k := 1; k <= flushEvery; k++ {
		if got := r.writes.Value() - before; got != 0 {
			t.Fatalf("node wrote after %d frames with a driver always in a step, want no write before %d", k-1, flushEvery)
		}
		lanes[k%2].step(t, fmt.Sprint(k)) // one more frame delivered
	}
	if got := r.writes.Value() - before; got != 1 {
		t.Fatalf("node made %d writes after its drivers delivered %d frames, want 1", got, flushEvery)
	}
	if got := x.recv(t, 1); got[0] != "x0" {
		t.Errorf("first write to node 1 on x starts %q, want x0", got)
	}
	x.halt(t)
	y.halt(t)
	if b := r.busy(); b != 0 {
		t.Errorf("hold count %d after both drivers halted, want 0", b)
	}
}

// TestHoldFailedWriteCountsAndRedials: a write that fails at release counts
// a send fault, and the node's next write dials the peer again.
func TestHoldFailedWriteCountsAndRedials(t *testing.T) {
	r := newHoldRig(t, 2)
	x := r.run(t, context.Background(), 1, newGated())
	x.enter(t, "lost")
	r.fab.BreakLink(0, 1)
	x.proc.gate <- struct{}{}
	// Once the driver has released the node, "lost" is in the failing write.
	for r.busy() != 0 {
		time.Sleep(time.Millisecond)
	}
	x.enter(t, "after")
	x.proc.gate <- struct{}{}
	if got := x.recv(t, 1); !slices.Equal(got, []string{"after"}) {
		t.Errorf("node 1 got %q over the redialed link, want [after]", got)
	}
	x.enter(t, "end")
	res := x.halt(t)
	if got := res.Faults[FaultSend]; got != 1 {
		t.Errorf("%d send faults, want 1 for the write on the broken link", got)
	}
}

// selfBusy keeps itself in a step for ever by sending to itself, and to node
// 1 alongside.
type selfBusy struct{ env node.Env }

func (p *selfBusy) Init(env node.Env) { p.env = env; p.Deliver(0, nil) }
func (p *selfBusy) Deliver(node.ID, node.Message) {
	p.env.Send(p.env.Self(), holdMsg("again"))
	p.env.Send(1, holdMsg("for you"))
}

// haltInInit sends one message and halts in Init.
type haltInInit struct{}

func (haltInInit) Init(env node.Env)             { env.Send(1, holdMsg("bye")); env.Halt() }
func (haltInInit) Deliver(node.ID, node.Message) {}

// TestHoldReleasedOnEveryExit: the hold count is back at 0 after a driver
// halts in Init (and what Init sent is written), after a context cancel
// ends a driver that never goes idle, and after the fabric closes under a
// driver in a step.
func TestHoldReleasedOnEveryExit(t *testing.T) {
	t.Run("halt in Init", func(t *testing.T) {
		r := newHoldRig(t, 2)
		l := r.run(t, context.Background(), 1, haltInInit{})
		<-l.done
		if b := r.busy(); b != 0 {
			t.Errorf("hold count %d, want 0", b)
		}
		if got := l.recv(t, 1); !slices.Equal(got, []string{"bye"}) {
			t.Errorf("node 1 got %q, want [bye]", got)
		}
	})
	t.Run("context cancel", func(t *testing.T) {
		r := newHoldRig(t, 2)
		ctx, cancel := context.WithCancel(context.Background())
		l := r.run(t, ctx, 1, &selfBusy{})
		l.recv(t, 1) // running, and writing within flushEvery
		cancel()
		<-l.done
		if b := r.busy(); b != 0 {
			t.Errorf("hold count %d, want 0", b)
		}
	})
	t.Run("transport close", func(t *testing.T) {
		r := newHoldRig(t, 2)
		l := r.run(t, context.Background(), 1, newGated())
		l.enter(t, "x")
		r.fab.Close()
		l.inst.Close()
		l.proc.gate <- struct{}{}
		<-l.done
		if b := r.busy(); b != 0 {
			t.Errorf("hold count %d, want 0", b)
		}
	})
}

// TestHoldPerLinkFIFO: frames a node sends to one peer arrive in send order
// while the hold flips under them: one sender holds and releases the node
// around each pair of frames it sends on two instances' tags, another sends
// on a third tag without ever holding it.
func TestHoldPerLinkFIFO(t *testing.T) {
	const k = 300
	fab, err := NewTCPNet(2)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	auths := muxAuths(t, 2, 0)
	core := fab.cores[0]
	send := func(tag uint64, seq int) {
		if err := fab.TaggedEndpoint(0, auths[0], tag).Send(1, binary.LittleEndian.AppendUint32(nil, uint32(seq))); err != nil {
			t.Error(err)
		}
	}
	seqOf := func(f Frame) (uint64, int) {
		tag := binary.LittleEndian.Uint64(f.Data[len(f.Data)-TagSize:])
		opened, err := auths[1].Open(0, f.Data[:len(f.Data)-TagSize])
		if err != nil {
			t.Fatal(err)
		}
		seq := int(binary.LittleEndian.Uint32(opened))
		fab.Recycle(1, f.Data)
		return tag, seq
	}
	// First the narrow interleaving, step by step: a frame held for the
	// node's last busy driver, which has left its step but not yet written,
	// must not be overtaken by a frame sent meanwhile.
	core.hold()
	send(3, 0)
	core.busy.Add(-1) // the release, up to its writeAll
	send(3, 1)
	if failed := core.writeAll(); failed != 0 {
		t.Fatalf("%d writes failed", failed)
	}
	for want := range 2 {
		if f, ok := fab.Recv(1, nil); !ok {
			t.Fatal("fabric closed")
		} else if _, seq := seqOf(f); seq != want {
			t.Fatalf("frame %d arrived where frame %d was due", seq, want)
		}
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // a driver: two instances' frames per step
		defer wg.Done()
		for i := range k {
			core.hold()
			send(1, i)
			send(2, i)
			if failed := core.release(); failed != 0 {
				t.Errorf("%d writes failed", failed)
			}
		}
	}()
	go func() { // a delay timer: no hold
		defer wg.Done()
		for i := range k {
			send(3, 2+i)
		}
	}()
	// last[tag] is the last sequence number seen on tag; the driver's two
	// tags must alternate 1, 2, 1, 2, … with rising numbers.
	last := map[uint64]int{1: -1, 2: -1, 3: 1}
	prevTag := uint64(2)
	for got := 0; got < 3*k; got++ {
		f, ok := fab.Recv(1, nil)
		if !ok {
			t.Fatal("fabric closed")
		}
		tag, seq := seqOf(f)
		if seq != last[tag]+1 {
			t.Fatalf("tag %d: frame %d after %d", tag, seq, last[tag])
		}
		last[tag] = seq
		if tag != 3 {
			if tag == prevTag {
				t.Fatalf("tag %d twice in a row: the driver's frames crossed", tag)
			}
			prevTag = tag
		}
	}
	wg.Wait()
	if b := core.busy.Load(); b != 0 {
		t.Errorf("hold count %d, want 0", b)
	}
}
