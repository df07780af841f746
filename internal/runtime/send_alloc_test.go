package runtime

import (
	"testing"

	"delphi/internal/auth"
	"delphi/internal/node"
	"delphi/internal/wire"
)

// allocMsg is a fixed 40-byte test message.
type allocMsg struct{}

func (allocMsg) Type() uint8                    { return wire.TypeTestPing }
func (allocMsg) WireSize() int                  { return 40 }
func (allocMsg) MarshalBinary() ([]byte, error) { return make([]byte, 40), nil }

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
// path: a broadcast is encoded once and every later stage reuses pooled
// memory, so a step costs a constant number of allocations — the marshalled
// body and its frame, per message — whatever the cluster size. (Encoding per
// destination cost 2n per message.)
func TestBroadcastAllocsDoNotGrowWithN(t *testing.T) {
	small, large := broadcastAllocs(t, 4), broadcastAllocs(t, 64)
	if small != large {
		t.Errorf("allocations per step grow with n: %.0f at n=4, %.0f at n=64", small, large)
	}
	if small > 4 {
		t.Errorf("%.0f allocations for two broadcasts and a flush, want ≤ 4 (2 per message)", small)
	}
}
