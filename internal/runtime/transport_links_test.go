package runtime_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"delphi/internal/auth"
	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/runtime"
)

// fabricAuths keys n nodes from one master.
func fabricAuths(t *testing.T, n int, master string) []*auth.Auth {
	t.Helper()
	auths := make([]*auth.Auth, n)
	for i := range auths {
		a, err := auth.New(node.ID(i), n, []byte(master))
		if err != nil {
			t.Fatal(err)
		}
		auths[i] = a
	}
	return auths
}

// allToAll sends one frame from every node to every node, itself included,
// over fresh plain endpoints and checks that each node receives all n,
// authentic.
func allToAll(t *testing.T, fab *runtime.TCPNet, auths []*auth.Auth) {
	t.Helper()
	n := len(auths)
	eps := make([]runtime.Transport, n)
	for i := range eps {
		eps[i] = fab.Endpoint(node.ID(i), auths[i])
	}
	for from := range eps {
		for to := range eps {
			if err := eps[from].Send(node.ID(to), seqFrame(from, 0)); err != nil {
				t.Fatalf("%d → %d: %v", from, to, err)
			}
		}
	}
	for to := range eps {
		chk := &seqChecker{next: map[int]int{}}
		for i := 0; i < n; i++ {
			f, ok := recvFrame(t, eps[to], 5*time.Second)
			if !ok {
				t.Fatalf("node %d received %d of %d frames", to, i, n)
			}
			chk.observe(t, auths[to], f)
		}
	}
}

// warmNetpoll opens and closes a fabric so the process-wide poller and its
// descriptors exist before a resource baseline is taken.
func warmNetpoll(t *testing.T) {
	t.Helper()
	fab, err := runtime.NewTCPNet(2)
	if err != nil {
		t.Fatal(err)
	}
	fab.Close()
}

// assertFlat fails if goroutines or descriptors grew over base.
func assertFlat(t *testing.T, base obs.ResourceSnapshot, what string) {
	t.Helper()
	now := obs.TakeResourceSnapshot()
	if grew := now.GrewBeyond(base, 0, 0, 64<<20); len(grew) != 0 {
		t.Errorf("%s: %v grew: goroutines %d → %d, fds %d → %d", what, grew, base.Goroutines, now.Goroutines, base.FDs, now.FDs)
	}
}

// TestTCPNetLinksCarryBothDirections drives every link of a fabric both ways
// at once: every node sends 1 000 numbered frames to every peer, one sender
// goroutine per (from, to), while every node receives. Per-link order must
// hold in both directions with every frame authentic, over exactly the
// n(n−1)/2 wired connections: nothing dialed, nothing dropped.
func TestTCPNetLinksCarryBothDirections(t *testing.T) {
	const n, per, tag = 5, 1000, 0xabad1dea
	for _, tagged := range []bool{false, true} {
		t.Run(fmt.Sprintf("tagged=%v", tagged), func(t *testing.T) {
			fab, err := runtime.NewTCPNet(n)
			if err != nil {
				t.Fatal(err)
			}
			defer fab.Close()
			rec := obs.New()
			fab.Observe(rec)
			auths := fabricAuths(t, n, "both-directions")
			eps := make([]runtime.Transport, n)
			for i := range eps {
				eps[i] = fab.Endpoint(node.ID(i), auths[i])
				if tagged {
					eps[i] = fab.TaggedEndpoint(node.ID(i), auths[i], tag)
				}
			}
			var wg sync.WaitGroup
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					if from == to {
						continue
					}
					wg.Add(1)
					go func(from, to int) {
						defer wg.Done()
						for seq := 0; seq < per; seq++ {
							if err := eps[from].Send(node.ID(to), seqFrame(from, seq)); err != nil {
								t.Errorf("%d → %d seq %d: %v", from, to, seq, err)
								return
							}
						}
					}(from, to)
				}
			}
			stop := make(chan struct{})
			timeout := time.AfterFunc(60*time.Second, func() { close(stop) })
			defer timeout.Stop()
			for to := 0; to < n; to++ {
				wg.Add(1)
				go func(to int) {
					defer wg.Done()
					next := make([]int, n)
					for got := 0; got < (n-1)*per; got++ {
						f, ok := eps[to].Recv(stop)
						if !ok {
							t.Errorf("node %d stalled after %d of %d frames", to, got, (n-1)*per)
							return
						}
						if tagged {
							// A tagged view leaves the tag on for the InstanceMux.
							cut := len(f.Data) - runtime.TagSize
							if cut < 0 || binary.LittleEndian.Uint64(f.Data[cut:]) != tag {
								t.Errorf("node %d: frame from %v without the tag", to, f.From)
								return
							}
							f.Data = f.Data[:cut]
						}
						body, err := auths[to].Open(f.From, f.Data)
						if err != nil || len(body) != 4 || node.ID(body[1]) != f.From {
							t.Errorf("node %d: frame from %v: body %x, err %v", to, f.From, body, err)
							return
						}
						if seq := int(body[2]) | int(body[3])<<8; seq != next[f.From] {
							t.Errorf("link %v → %d: got seq %d, want %d", f.From, to, seq, next[f.From])
							return
						}
						next[f.From]++
						eps[to].(runtime.Recycler).Recycle(f.Data)
					}
				}(to)
			}
			wg.Wait()
			if got := fab.ConnEnds(); got != n*(n-1) {
				t.Errorf("fabric holds %d connection ends, want %d: %d links, two ends each", got, n*(n-1), n*(n-1)/2)
			}
			if dials := countDials(rec); len(dials) != 0 {
				t.Errorf("wired fabric dialed: %v", dials)
			}
			if got := fab.Drops(); got != 0 {
				t.Errorf("clean run counted %d drops", got)
			}
		})
	}
}

// TestTCPNetBrokenLinkFallsBack closes one wired connection under a live
// fabric. Each end loses at most the one Send that finds the link dead; from
// then on each dials its own one-way connection, as NewTCP transports do,
// and frames keep arriving in order. Nothing else moves: the other links
// stay wired, exactly two tcp.dial events are recorded, no drop is counted,
// and Close returns every goroutine and descriptor.
func TestTCPNetBrokenLinkFallsBack(t *testing.T) {
	const n = 3
	warmNetpoll(t)
	base := obs.TakeResourceSnapshot()
	fab, err := runtime.NewTCPNet(n)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	rec := obs.New()
	fab.Observe(rec)
	auths := fabricAuths(t, n, "broken-link")
	eps := make([]runtime.Transport, n)
	for i := range eps {
		eps[i] = fab.Endpoint(node.ID(i), auths[i])
	}
	chk := make([]*seqChecker, n)
	for i := range chk {
		chk[i] = &seqChecker{next: map[int]int{}}
	}
	// exchange sends seqs [lo, hi) from → to, re-sending a frame whose Send
	// failed, and receives them at to in order; it returns the failures.
	exchange := func(from, to, lo, hi int) (failed int) {
		t.Helper()
		for seq := lo; seq < hi; seq++ {
			for eps[from].Send(node.ID(to), seqFrame(from, seq)) != nil {
				if failed++; failed > 1 {
					t.Fatalf("%d → %d: a second Send failed at seq %d", from, to, seq)
				}
			}
			f, ok := recvFrame(t, eps[to], 5*time.Second)
			if !ok {
				t.Fatalf("%d → %d: seq %d never arrived", from, to, seq)
			}
			chk[to].observe(t, auths[to], f)
		}
		return failed
	}
	for _, link := range [][2]int{{0, 1}, {1, 0}, {0, 2}, {2, 0}, {1, 2}, {2, 1}} {
		if failed := exchange(link[0], link[1], 0, 10); failed != 0 {
			t.Fatalf("%d → %d failed a Send on a healthy link", link[0], link[1])
		}
	}

	fab.BreakLink(0, 1)
	for _, link := range [][2]int{{0, 1}, {1, 0}} {
		if failed := exchange(link[0], link[1], 10, 40); failed != 1 {
			t.Errorf("%d → %d: %d Sends failed on the closed link, want exactly the one that found it closed", link[0], link[1], failed)
		}
	}
	for _, link := range [][2]int{{0, 2}, {2, 0}, {1, 2}, {2, 1}} {
		if failed := exchange(link[0], link[1], 10, 20); failed != 0 {
			t.Errorf("%d → %d failed a Send; its link was not the broken one", link[0], link[1])
		}
	}
	dials := countDials(rec)
	if len(dials) != 2 || dials[0] == dials[1] || dials[0][0]+dials[0][1] != 1 || dials[1][0]+dials[1][1] != 1 {
		t.Errorf("tcp.dial events = %v, want 0 → 1 and 1 → 0", dials)
	}
	// Two wired links (four ends) plus two one-way connections, each with a
	// dialed and an accepted end; the dead link is in no registry.
	if got := fab.ConnEnds(); got != 8 {
		t.Errorf("fabric holds %d connection ends after the fallback, want 8", got)
	}
	if got := fab.Drops(); got != 0 {
		t.Errorf("idle link closed between frames counted %d drops", got)
	}
	if err := fab.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	assertFlat(t, base, "fabric with a re-dialed link, closed")
}

// TestTCPNetOpenCloseIsFlat opens and closes fifty n=8 fabrics — 28 links and
// 8 listeners each — and requires the goroutine and descriptor counts of the
// process to end where they began.
func TestTCPNetOpenCloseIsFlat(t *testing.T) {
	warmNetpoll(t)
	base := obs.TakeResourceSnapshot()
	for round := 0; round < 50; round++ {
		fab, err := runtime.NewTCPNet(8)
		if err != nil {
			t.Fatalf("fabric %d: %v", round, err)
		}
		if err := fab.Close(); err != nil {
			t.Fatalf("fabric %d: close: %v", round, err)
		}
	}
	assertFlat(t, base, "50 fabrics of n=8 opened and closed")
}

// TestTCPNetFailedWiringClosesEverything breaks the wiring at every step in
// turn — the listener is closed under the accept — and requires NewTCPNet to
// fail and leave nothing behind: every listener and every connection made
// before the failing step is closed.
func TestTCPNetFailedWiringClosesEverything(t *testing.T) {
	const n = 5
	warmNetpoll(t)
	base := obs.TakeResourceSnapshot()
	for failAt := 0; failAt < n*(n-1)/2; failAt++ {
		step := 0
		fab, err := runtime.NewTCPNetAccept(n, func(ln net.Listener) (net.Conn, error) {
			if step++; step > failAt {
				ln.Close()
			}
			return ln.Accept()
		})
		if err == nil {
			fab.Close()
			t.Fatalf("wiring step %d: listener closed under the accept, NewTCPNet still succeeded", failAt)
		}
	}
	assertFlat(t, base, "failed wirings")
}

// TestTCPNetWiringSkipsStrangers lets a foreign connection reach a listener's
// backlog ahead of the fabric's own dial: the wiring must close it, not
// install it as a link, and carry on to accept its own connection.
func TestTCPNetWiringSkipsStrangers(t *testing.T) {
	const n = 4
	var stranger net.Conn
	step := 0
	fab, err := runtime.NewTCPNetAccept(n, func(ln net.Listener) (net.Conn, error) {
		// Accepts run 0–1, 0–2, 1–2, …: the stranger dials node 2 behind the
		// fabric's 0–2 connection and so ahead of its 1–2 connection.
		if step++; step == 2 {
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return nil, err
			}
			stranger = c
		}
		return ln.Accept()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	defer stranger.Close()
	stranger.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := stranger.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("stranger's connection was kept open (read: %v)", err)
	}
	if got := fab.ConnEnds(); got != n*(n-1) {
		t.Errorf("fabric holds %d connection ends, want %d", got, n*(n-1))
	}
	allToAll(t, fab, fabricAuths(t, n, "strangers"))
}

// TestTCPOversizeFrameRefusedBySender sends a frame one byte over what the
// receiving read loop accepts. The receiver's answer to such a record is to
// drop the connection — on a fabric, its own outbound link too — so the
// sender must refuse it: an error from Send, the link still up, the next
// frame delivered over it, nothing dropped and nothing dialed.
func TestTCPOversizeFrameRefusedBySender(t *testing.T) {
	fab, err := runtime.NewTCPNet(2)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	rec := obs.New()
	fab.Observe(rec)
	auths := fabricAuths(t, 2, "oversize")
	tx, rx := fab.Endpoint(0, auths[0]), fab.Endpoint(1, auths[1])
	if err := tx.Send(1, seqFrame(0, 0)); err != nil {
		t.Fatal(err)
	}
	jumbo := make([]byte, runtime.MaxFrameSize+1-auth.MACSize-runtime.TagSize)
	if err := tx.Send(1, jumbo); err == nil {
		t.Error("a frame the receiver must refuse was written")
	}
	if err := tx.Send(1, seqFrame(0, 1)); err != nil {
		t.Fatalf("ordinary frame after the refused one: %v", err)
	}
	chk := &seqChecker{next: map[int]int{}}
	for i := 0; i < 2; i++ {
		f, ok := recvFrame(t, rx, 5*time.Second)
		if !ok {
			t.Fatalf("frame %d never arrived: the link went down", i)
		}
		chk.observe(t, auths[1], f)
	}
	if got := fab.Drops(); got != 0 {
		t.Errorf("Drops() = %d, want 0", got)
	}
	if dials := countDials(rec); len(dials) != 0 {
		t.Errorf("the link was re-dialed: %v", dials)
	}
}
