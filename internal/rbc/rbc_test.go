package rbc_test

import (
	"bytes"
	"fmt"
	"testing"

	"delphi/internal/node"
	"delphi/internal/rbc"
	"delphi/internal/sim"
)

// harness wraps an RBC engine as a process that broadcasts its payloads and
// records deliveries.
type harness struct {
	cfg       node.Config
	broadcast map[uint32][]byte
	eng       *rbc.Engine
	delivered map[rbc.Key][]byte
	env       node.Env
}

func (h *harness) Init(env node.Env) {
	h.env = env
	h.delivered = make(map[rbc.Key][]byte)
	h.eng = rbc.NewEngine(h.cfg, env, 10, func(k rbc.Key, p []byte) {
		h.delivered[k] = append([]byte(nil), p...)
		env.Output(k)
	})
	for tag, payload := range h.broadcast {
		h.eng.Broadcast(tag, payload)
	}
}

func (h *harness) Deliver(from node.ID, m node.Message) {
	h.eng.Handle(from, m)
}

// equivInit is a Byzantine initiator that sends different INITs to
// different nodes for the same tag.
type equivInit struct{}

func (e *equivInit) Init(env node.Env) {
	for i := 0; i < env.N(); i++ {
		payload := []byte("left")
		if i%2 == 1 {
			payload = []byte("right")
		}
		env.Send(node.ID(i), &rbc.Init{Tag: 9, Payload: payload})
	}
}

func (e *equivInit) Deliver(node.ID, node.Message) {}

func TestRBCAllDeliver(t *testing.T) {
	n, f := 7, 2
	cfg := node.Config{N: n, F: f}
	procs := make([]node.Process, n)
	hs := make([]*harness, n)
	for i := 0; i < n; i++ {
		h := &harness{cfg: cfg, broadcast: map[uint32][]byte{1: []byte(fmt.Sprintf("payload-%d", i))}}
		hs[i] = h
		procs[i] = h
	}
	r, err := sim.NewRunner(cfg, sim.Local(), 1, procs)
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	for i, h := range hs {
		for j := 0; j < n; j++ {
			k := rbc.Key{Initiator: node.ID(j), Tag: 1}
			want := []byte(fmt.Sprintf("payload-%d", j))
			if got, ok := h.delivered[k]; !ok {
				t.Errorf("node %d missing delivery %v", i, k)
			} else if !bytes.Equal(got, want) {
				t.Errorf("node %d delivered %q for %v, want %q", i, got, k, want)
			}
		}
	}
}

func TestRBCCrashInitiator(t *testing.T) {
	n, f := 4, 1
	cfg := node.Config{N: n, F: f}
	procs := make([]node.Process, n)
	hs := make([]*harness, n)
	for i := 0; i < n-1; i++ {
		h := &harness{cfg: cfg, broadcast: map[uint32][]byte{0: []byte{byte(i)}}}
		hs[i] = h
		procs[i] = h
	}
	// Node n-1 crashed (nil); its broadcast never starts, others' must land.
	r, err := sim.NewRunner(cfg, sim.Local(), 2, procs)
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	for i := 0; i < n-1; i++ {
		for j := 0; j < n-1; j++ {
			k := rbc.Key{Initiator: node.ID(j), Tag: 0}
			if _, ok := hs[i].delivered[k]; !ok {
				t.Errorf("node %d missing delivery from %d", i, j)
			}
		}
	}
}

// TestRBCAgreementUnderEquivocation: an equivocating initiator must not get
// two different payloads delivered at different honest nodes.
func TestRBCAgreementUnderEquivocation(t *testing.T) {
	n, f := 7, 2
	cfg := node.Config{N: n, F: f}
	for seed := int64(0); seed < 8; seed++ {
		procs := make([]node.Process, n)
		hs := make([]*harness, n)
		procs[0] = &equivInit{}
		for i := 1; i < n; i++ {
			h := &harness{cfg: cfg}
			hs[i] = h
			procs[i] = h
		}
		r, err := sim.NewRunner(cfg, sim.AWS(), seed, procs)
		if err != nil {
			t.Fatal(err)
		}
		r.Run()
		k := rbc.Key{Initiator: 0, Tag: 9}
		var first []byte
		for i := 1; i < n; i++ {
			got, ok := hs[i].delivered[k]
			if !ok {
				continue // equivocated broadcasts may never deliver
			}
			if first == nil {
				first = got
			} else if !bytes.Equal(first, got) {
				t.Fatalf("seed %d: agreement violated: %q vs %q", seed, first, got)
			}
		}
	}
}
