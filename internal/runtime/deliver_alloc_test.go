package runtime

import (
	"testing"

	"delphi/internal/aba"
	"delphi/internal/auth"
	"delphi/internal/codec"
	"delphi/internal/node"
	"delphi/internal/rbc"
	"delphi/internal/wire"
)

// quietProc delivers into nothing.
type quietProc struct{}

func (quietProc) Init(node.Env)                 {}
func (quietProc) Deliver(node.ID, node.Message) {}

// TestEnvelopeDecodeAllocs is the allocation gate on the receive path: a warm
// driver opens, unpacks and decodes a 16-message envelope of rbc ECHO/READY
// and aba BVAL/AUX messages, each carved from the driver's arena, for at
// most one allocation per envelope (a fresh chunk now and then), where every
// message used to cost one or two of its own.
func TestEnvelopeDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n = 4
	master := []byte("decode-alloc-gate")
	self, peer := mustAuth(t, 0, n, master), mustAuth(t, 1, n, master)
	hub := NewHub(n)
	defer hub.Close()
	d := NewDriver(node.Config{N: n, F: 1}, 0, quietProc{}, hub.Endpoint(0, self), self, codec.MustRegistry())
	payload := []byte("8 bytes!") // an ACS input: one float64
	var frames [][]byte
	for i := range 4 {
		for _, m := range []node.Message{
			&rbc.Echo{Initiator: node.ID(i), Tag: 1, Payload: payload},
			&rbc.Ready{Initiator: node.ID(i), Tag: 1, Payload: payload},
			&aba.BVal{Inst: uint32(i), Round: 1, V: true},
			&aba.Aux{Inst: uint32(i), Round: 1},
		} {
			frame, err := wire.Encode(m)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, frame)
		}
	}
	sealed := peer.AppendSeal(0, nil, AppendBatch(nil, frames))
	in := hub.inbox[0]
	deliver := func() {
		// The frame comes from the inbox's pool, as a transport's does, and
		// the driver hands it back.
		buf := in.getBuf(len(sealed))
		copy(buf, sealed)
		if !d.deliverFrame(Frame{From: 1, Data: buf}) {
			t.Fatal("the process halted")
		}
	}
	for range 64 {
		deliver() // warm the arena's chunk list and the buffer pool
	}
	if faults := d.Faults(); faults != (Faults{}) {
		t.Fatalf("faults %v delivering the envelope", faults)
	}
	// Ten envelopes a run, so the average has a tenth's resolution.
	allocs := testing.AllocsPerRun(100, func() {
		for range 10 {
			deliver()
		}
	}) / 10
	if allocs > 1 {
		t.Errorf("%.1f allocations per 16-message envelope, want ≤ 1", allocs)
	}
}

func mustAuth(t *testing.T, id node.ID, n int, master []byte) *auth.Auth {
	t.Helper()
	a, err := auth.New(id, n, master)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
