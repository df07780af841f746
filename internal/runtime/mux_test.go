package runtime

import (
	"bytes"
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"delphi/internal/auth"
	"delphi/internal/node"
	"delphi/internal/obs"
)

// muxAuths derives one epoch's pairwise authenticators for an n-node
// cluster, keyed so distinct epochs cannot authenticate each other.
func muxAuths(t *testing.T, n int, epoch uint64) []*auth.Auth {
	t.Helper()
	as := make([]*auth.Auth, n)
	for i := range as {
		a, err := auth.New(node.ID(i), n, []byte(fmt.Sprintf("mux-epoch-%d", epoch)))
		if err != nil {
			t.Fatal(err)
		}
		as[i] = a
	}
	return as
}

// waitStale polls until the mux's stale counter reaches want (routing is
// asynchronous) or the deadline passes.
func waitStale(t *testing.T, m *InstanceMux, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.Stale() < want {
		if time.Now().After(deadline) {
			t.Fatalf("stale counter stuck at %d, want >= %d", m.Stale(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMuxRoutesByTag pins the core demux contract on a hub fabric: two
// concurrent instances with distinct epoch keys share the fabric, and each
// driver-side endpoint receives exactly its own instance's frames, already
// stripped of the tag, verifiable under its own epoch authenticator.
func TestMuxRoutesByTag(t *testing.T) {
	const n = 2
	hub := NewHub(n)
	defer hub.Close()
	m := NewInstanceMux(hub)
	defer m.Close()

	type lane struct {
		tag   uint64
		auths []*auth.Auth
		inst  *MuxInstance
	}
	lanes := make([]*lane, 2)
	for i := range lanes {
		tag := uint64(100 + i)
		inst, err := m.Register(tag)
		if err != nil {
			t.Fatal(err)
		}
		lanes[i] = &lane{tag: tag, auths: muxAuths(t, n, tag), inst: inst}
	}
	for _, l := range lanes {
		payload := []byte(fmt.Sprintf("hello from instance %d", l.tag))
		sender := l.inst.Endpoint(0, hub.TaggedEndpoint(0, l.auths[0], l.tag))
		if err := sender.Send(1, payload); err != nil {
			t.Fatal(err)
		}
		receiver := l.inst.Endpoint(1, hub.TaggedEndpoint(1, l.auths[1], l.tag))
		f, ok := receiver.Recv(nil)
		if !ok {
			t.Fatalf("instance %d: receiver saw close instead of frame", l.tag)
		}
		if f.From != 0 {
			t.Fatalf("instance %d: frame from %v, want 0", l.tag, f.From)
		}
		opened, err := l.auths[1].Open(0, f.Data)
		if err != nil {
			t.Fatalf("instance %d: frame does not verify under own epoch: %v", l.tag, err)
		}
		if !bytes.Equal(opened, payload) {
			t.Fatalf("instance %d: payload corrupted in routing", l.tag)
		}
		receiver.(Recycler).Recycle(f.Data)
	}
	if got := m.Stale(); got != 0 {
		t.Fatalf("clean routing produced %d stale frames", got)
	}
}

// TestMuxStaleUnknownTag pins the discard path: frames tagged for an
// unregistered instance (or too short to carry a tag) are counted stale and
// never reach a live instance.
func TestMuxStaleUnknownTag(t *testing.T) {
	const n = 2
	hub := NewHub(n)
	defer hub.Close()
	m := NewInstanceMux(hub)
	defer m.Close()

	live, err := m.Register(7)
	if err != nil {
		t.Fatal(err)
	}
	auths := muxAuths(t, n, 7)
	// Tag 999 was never registered.
	ghost := hub.TaggedEndpoint(0, auths[0], 999)
	if err := ghost.Send(1, []byte("nobody home")); err != nil {
		t.Fatal(err)
	}
	waitStale(t, m, 1)
	ep := live.Endpoint(1, hub.TaggedEndpoint(1, auths[1], 7))
	if _, ok := ep.TryRecv(); ok {
		t.Fatal("ghost-tagged frame leaked into a live instance")
	}
}

// TestMuxRelabeledTagFailsMAC pins the overlapping-epoch safety property:
// a frame sealed under epoch A's keys but carrying epoch B's tag routes to
// B — and fails B's MAC, so the driver drops it without wedging B.
func TestMuxRelabeledTagFailsMAC(t *testing.T) {
	const n = 2
	hub := NewHub(n)
	defer hub.Close()
	m := NewInstanceMux(hub)
	defer m.Close()

	instB, err := m.Register(2)
	if err != nil {
		t.Fatal(err)
	}
	authsA, authsB := muxAuths(t, n, 1), muxAuths(t, n, 2)
	// Epoch A's keys, epoch B's tag: what a stale or malicious relabel
	// looks like on the wire.
	forger := hub.TaggedEndpoint(0, authsA[0], 2)
	if err := forger.Send(1, []byte("stale round frame")); err != nil {
		t.Fatal(err)
	}
	ep := instB.Endpoint(1, hub.TaggedEndpoint(1, authsB[1], 2))
	f, ok := ep.Recv(nil)
	if !ok {
		t.Fatal("relabeled frame was not routed")
	}
	if _, err := authsB[1].Open(0, f.Data); err == nil {
		t.Fatal("cross-epoch frame verified under the wrong epoch's keys")
	}
	// The instance is still perfectly usable afterwards.
	sender := instB.Endpoint(0, hub.TaggedEndpoint(0, authsB[0], 2))
	if err := sender.Send(1, []byte("legit")); err != nil {
		t.Fatal(err)
	}
	f, ok = ep.Recv(nil)
	if !ok {
		t.Fatal("live instance wedged after cross-epoch frame")
	}
	if opened, err := authsB[1].Open(0, f.Data); err != nil || !bytes.Equal(opened, []byte("legit")) {
		t.Fatalf("post-forgery frame broken: %v", err)
	}
}

// TestMuxInstanceGC pins instance garbage collection: closing an instance
// reclaims its queued frames (counted stale, buffers recycled to the
// fabric), later frames for the dead tag are shed on arrival, and other
// instances are untouched.
func TestMuxInstanceGC(t *testing.T) {
	const n = 2
	hub := NewHub(n)
	defer hub.Close()
	m := NewInstanceMux(hub)
	defer m.Close()

	dead, err := m.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := m.Register(2)
	if err != nil {
		t.Fatal(err)
	}
	authsDead, authsLive := muxAuths(t, n, 1), muxAuths(t, n, 2)

	// Queue frames the dead instance will never consume. Routing is
	// asynchronous, so wait for them to land in the instance inbox first.
	sender := hub.TaggedEndpoint(0, authsDead[0], 1)
	const queued = 5
	for i := 0; i < queued; i++ {
		if err := sender.Send(1, []byte("undelivered")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if deadEp := dead.slots[1]; func() bool { deadEp.mu.Lock(); defer deadEp.mu.Unlock(); return deadEp.count == queued }() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queued frames never routed")
		}
		time.Sleep(time.Millisecond)
	}
	dead.Close()
	if got := m.Stale(); got != queued {
		t.Fatalf("instance GC reclaimed %d frames, want %d", got, queued)
	}
	// Frames for the dead tag now shed on arrival.
	if err := sender.Send(1, []byte("after the funeral")); err != nil {
		t.Fatal(err)
	}
	waitStale(t, m, queued+1)
	// Double-close is safe, and the survivor still routes.
	dead.Close()
	ep0 := survivor.Endpoint(0, hub.TaggedEndpoint(0, authsLive[0], 2))
	if err := ep0.Send(1, []byte("survivor")); err != nil {
		t.Fatal(err)
	}
	ep1 := survivor.Endpoint(1, hub.TaggedEndpoint(1, authsLive[1], 2))
	if f, ok := ep1.Recv(nil); !ok {
		t.Fatal("survivor instance broken by neighbour GC")
	} else if opened, err := authsLive[1].Open(0, f.Data); err != nil || !bytes.Equal(opened, []byte("survivor")) {
		t.Fatalf("survivor frame broken: %v", err)
	}
}

// TestMuxConcurrentLifecycle races registration, traffic, and instance GC
// across goroutines — the soak workload's steady state, compressed. Run
// under -race this pins the locking discipline.
func TestMuxConcurrentLifecycle(t *testing.T) {
	const n = 3
	hub := NewHub(n)
	defer hub.Close()
	m := NewInstanceMux(hub)
	defer m.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				tag := uint64(g*1000 + round)
				auths := make([]*auth.Auth, n)
				for i := range auths {
					auths[i], _ = auth.New(node.ID(i), n, []byte(fmt.Sprintf("life-%d", tag)))
				}
				inst, err := m.Register(tag)
				if err != nil {
					t.Errorf("register %d: %v", tag, err)
					return
				}
				eps := make([]Transport, n)
				for i := range eps {
					eps[i] = inst.Endpoint(node.ID(i), hub.TaggedEndpoint(node.ID(i), auths[i], tag))
				}
				payload := []byte(fmt.Sprintf("round %d", tag))
				for i := 1; i < n; i++ {
					if err := eps[0].Send(node.ID(i), payload); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
				// Consume some frames, abandon others: GC must reclaim both.
				if f, ok := eps[1].Recv(nil); ok {
					if opened, err := auths[1].Open(0, f.Data); err != nil || !bytes.Equal(opened, payload) {
						t.Errorf("tag %d: corrupted frame: %v", tag, err)
						return
					}
					eps[1].(Recycler).Recycle(f.Data)
				}
				inst.Close()
			}
		}(g)
	}
	wg.Wait()
}

// settledGoroutines returns the goroutine count once it holds still, so
// stragglers of earlier tests winding down do not read as a change.
func settledGoroutines() int {
	last := goruntime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(2 * time.Millisecond)
		n := goruntime.NumGoroutine()
		if n == last {
			return n
		}
		last = n
	}
	return last
}

// TestMuxStartsNoGoroutines pins that routing runs on the goroutine that
// puts the frame (a link's read loop, or the sender): attaching a mux to a
// Hub or to a TCPNet starts no goroutine of its own.
func TestMuxStartsNoGoroutines(t *testing.T) {
	tcp, err := NewTCPNet(3)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	hub := NewHub(3)
	defer hub.Close()
	for _, fab := range []struct {
		name string
		MuxFabric
	}{{"hub", hub}, {"tcp", tcp}} {
		before := settledGoroutines()
		m := NewInstanceMux(fab)
		after := settledGoroutines()
		m.Close()
		if after != before {
			t.Errorf("%s: %d goroutines before NewInstanceMux, %d after", fab.name, before, after)
		}
	}
}

// TestMuxCloseAccountsRoutedFrames pins what becomes of frames that meet a
// closing mux: each is counted stale (routed to an instance Close reclaims,
// or to no instance) or queued in the fabric inbox, as frames queued before
// the mux attached — never lost silently and never delivered. Frames sent
// after Close queue in the fabric inbox.
func TestMuxCloseAccountsRoutedFrames(t *testing.T) {
	const n, during, after = 2, 500, 10
	hub := NewHub(n)
	defer hub.Close()
	m := NewInstanceMux(hub)
	inst, err := m.Register(7)
	if err != nil {
		t.Fatal(err)
	}
	auths := muxAuths(t, n, 7)
	sender := hub.TaggedEndpoint(0, auths[0], 7)
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 0; i < during; i++ {
			if err := sender.Send(1, []byte("in flight")); err != nil {
				t.Error(err)
			}
		}
	}()
	m.Close()
	<-sent
	for i := 0; i < after; i++ {
		if err := sender.Send(1, []byte("after close")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := inst.Endpoint(1, hub.TaggedEndpoint(1, auths[1], 7)).TryRecv(); ok {
		t.Fatal("a closed mux's instance delivered a frame")
	}
	queued := 0
	for {
		if _, ok := hub.inbox[1].tryGet(); !ok {
			break
		}
		queued++
	}
	if stale := m.Stale(); stale+uint64(queued) != during+after || queued < after {
		t.Fatalf("%d stale + %d queued in the fabric inbox, want %d frames with at least %d queued", stale, queued, during+after, after)
	}
}

// TestMuxFeedsFabricObs: with routing on, frames wait in instance inboxes
// rather than the fabric ring, so those inboxes ratchet the fabric's
// transport.inbox_high_water gauge, and frames no instance claims count in
// mux.stale_frames.
func TestMuxFeedsFabricObs(t *testing.T) {
	const n, queued = 2, 5
	hub := NewHub(n)
	defer hub.Close()
	rec := obs.New()
	hub.Observe(rec)
	m := NewInstanceMux(hub)
	m.Observe(rec)
	defer m.Close()
	if _, err := m.Register(3); err != nil {
		t.Fatal(err)
	}
	auths := muxAuths(t, n, 3)
	for i := 0; i < queued; i++ {
		if err := hub.TaggedEndpoint(0, auths[0], 3).Send(1, []byte("waiting")); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub.TaggedEndpoint(0, auths[0], 4).Send(1, []byte("nobody home")); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if hw := snap.Value("transport.inbox_high_water"); hw != queued {
		t.Errorf("transport.inbox_high_water = %d, want %d", hw, queued)
	}
	if stale := snap.Value("mux.stale_frames"); stale != 1 {
		t.Errorf("mux.stale_frames = %d, want 1", stale)
	}
}
