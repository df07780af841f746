package runtime

import (
	"math"
	"testing"

	"delphi/internal/auth"
	"delphi/internal/node"
	"delphi/internal/wire"
)

// allocMsg is a fixed 40-byte test message.
type allocMsg struct{}

func (allocMsg) Type() uint8                           { return wire.TypeTestPing }
func (allocMsg) WireSize() int                         { return 40 }
func (allocMsg) AppendBinary(b []byte) ([]byte, error) { return append(b, make([]byte, 40)...), nil }

// broadcastAllocs measures one steady-state protocol step of an n-node hub
// cluster as node 0's driver sees it: two Broadcasts (so every destination
// gets an envelope, not a bare frame), one flush, and the receivers handing
// their buffers back.
func broadcastAllocs(t *testing.T, n int) float64 {
	t.Helper()
	hub := NewHub(n)
	defer hub.Close()
	a, err := auth.New(0, n, []byte("alloc-gate"))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(node.Config{N: n, F: (n - 1) / 3}, 0, nil, hub.Endpoint(0, a), a, wire.NewRegistry())
	env := (*driverEnv)(d)
	step := func() {
		env.Broadcast(allocMsg{})
		env.Broadcast(allocMsg{})
		d.flush()
		for to := 0; to < n; to++ {
			f, ok := hub.inbox[to].tryGet()
			if !ok {
				t.Fatalf("node %d got no envelope", to)
			}
			hub.Recycle(node.ID(to), f.Data)
		}
	}
	step() // warm the pending lists, the envelope scratch and the pools
	return testing.AllocsPerRun(200, step)
}

// TestBroadcastAllocsDoNotGrowWithN is the allocation gate on the send
// path: a broadcast is encoded once, into the driver's reused frame buffer,
// and every later stage reuses pooled memory, so a steady step allocates
// nothing whatever the cluster size. (Encoding per destination cost 2n per
// message, and a frame of its own 2.)
func TestBroadcastAllocsDoNotGrowWithN(t *testing.T) {
	small, large := broadcastAllocs(t, 4), broadcastAllocs(t, 64)
	if small != large {
		t.Errorf("allocations per step grow with n: %.0f at n=4, %.0f at n=64", small, large)
	}
	if small > 0 {
		t.Errorf("%.0f allocations for two broadcasts and a flush, want 0", small)
	}
}

// TestSendToNoNode: a Send to an id outside [0, n), math.MaxInt included
// (whose one-past end wraps), is a counted send fault and leaves nothing
// pending.
func TestSendToNoNode(t *testing.T) {
	const n = 4
	hub := NewHub(n)
	defer hub.Close()
	a := mustAuth(t, 0, n, []byte("no-node"))
	d := NewDriver(node.Config{N: n, F: 1}, 0, nil, hub.Endpoint(0, a), a, wire.NewRegistry())
	env := (*driverEnv)(d)
	for _, to := range []node.ID{-1, n, math.MaxInt} {
		env.Send(to, allocMsg{})
	}
	if got := d.Faults()[FaultSend]; got != 3 {
		t.Errorf("%d send faults for three sends to no node, want 3", got)
	}
	if d.pendCount != 0 || len(d.pend) != 0 {
		t.Errorf("sends to no node left %d frames (%d pairs) pending", len(d.pend), d.pendCount)
	}
}
