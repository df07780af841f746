package aaa_test

import (
	"fmt"
	"math"
	"testing"

	"delphi/internal/aaa"
	"delphi/internal/node"
	"delphi/internal/rbc"
	"delphi/internal/wire"
)

// TestDeliverOutOfRange: an Abraham et al. report for a round outside
// [1, Rounds], naming a node outside [0, n) or sent from outside [0, n), is
// dropped with no panic, no allocation and nothing emitted; and a repeated
// report counts as one witness.
func TestDeliverOutOfRange(t *testing.T) {
	const n, f, rounds = 7, 2, 3
	cfg := aaa.AbrahamConfig{Config: node.Config{N: n, F: f}, Rounds: rounds}
	// Each case builds its i-th message, so a message that did make state
	// would make new state on every run.
	cases := []struct {
		name string
		msg  func(i int) (node.ID, node.Message)
	}{
		{"round 0", func(i int) (node.ID, node.Message) { return node.ID(i % n), &aaa.Report{Have: []node.ID{0}} }},
		{"round past Rounds", func(i int) (node.ID, node.Message) {
			return 1, &aaa.Report{Round: uint16(rounds + 1 + i), Have: []node.ID{0}}
		}},
		{"names n+i", func(i int) (node.ID, node.Message) {
			return node.ID(i % n), &aaa.Report{Round: uint16(1 + i%rounds), Have: []node.ID{0, node.ID(n + i)}}
		}},
		{"names a negative id", func(i int) (node.ID, node.Message) {
			return node.ID(i % n), &aaa.Report{Round: uint16(1 + i%rounds), Have: []node.ID{node.ID(-1 - i)}}
		}},
		{"from n+i", func(i int) (node.ID, node.Message) { return node.ID(n + i), &aaa.Report{Round: 2, Have: []node.ID{0}} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := &stubEnv{n: n, f: f}
			a, err := aaa.NewAbraham(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			a.Init(env)
			sent := len(env.sent)
			const runs = 100
			froms := make([]node.ID, runs+1) // AllocsPerRun makes one warm-up call
			msgs := make([]node.Message, runs+1)
			for i := range msgs {
				froms[i], msgs[i] = c.msg(i)
			}
			i := 0
			if allocs := testing.AllocsPerRun(runs, func() { a.Deliver(froms[i], msgs[i]); i++ }); allocs != 0 {
				t.Errorf("%.1f allocations per dropped report", allocs)
			}
			if len(env.sent) != sent {
				t.Errorf("a dropped report emitted %v", env.sent[sent:])
			}
		})
	}
	t.Run("duplicate report counts once", func(t *testing.T) {
		const n, f = 4, 1
		env := &stubEnv{n: n, f: f}
		a, err := aaa.NewAbraham(aaa.AbrahamConfig{Config: node.Config{N: n, F: f}, Rounds: 1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		a.Init(env)
		// Deliver every node's round-1 value through 2t+1 READYs.
		for j := node.ID(0); j < n; j++ {
			var w wire.Writer
			w.F64(float64(j))
			for from := node.ID(0); from < 2*f+1; from++ {
				a.Deliver(from, &rbc.Ready{Initiator: j, Tag: 1, Payload: w})
			}
		}
		report := &aaa.Report{Round: 1, Have: []node.ID{0, 1, 2}}
		for i := 0; i < n; i++ {
			a.Deliver(1, report)
		}
		a.Deliver(2, report)
		if len(env.outputs) != 0 {
			t.Fatalf("n-t-1 distinct reporters and repeats decided %v", env.outputs)
		}
		a.Deliver(3, report)
		if len(env.outputs) != 1 || env.outputs[0].(aaa.AbrahamResult).Output != 1.5 {
			t.Fatalf("n-t distinct witnesses output %v, want one output of 1.5", env.outputs)
		}
	})
}

// TestNonFiniteReceipts: a NaN or ±Inf value, received by Dolev et al. as a
// multicast or by Abraham et al. as a reliably broadcast round value, is
// dropped before it counts: no panic, no allocation, nothing emitted, and
// its sender is not counted, so the same sender's finite value still is.
func TestNonFiniteReceipts(t *testing.T) {
	f64 := func(v float64) []byte {
		var w wire.Writer
		w.F64(v)
		return w
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprintf("dolev %g", bad), func(t *testing.T) {
			const n, f, runs = 6, 1, 100
			d, err := aaa.NewDolev(aaa.DolevConfig{N: n, F: f, Rounds: runs + 2}, 1)
			if err != nil {
				t.Fatal(err)
			}
			env := &stubEnv{n: n, f: f}
			d.Init(env)
			// Each run's value opens a round of its own, after round 1.
			i := 0
			if allocs := testing.AllocsPerRun(runs, func() {
				d.Deliver(node.ID(i%n), &aaa.Value{Round: uint16(2 + i), V: bad})
				i++
			}); allocs != 0 {
				t.Errorf("%.1f allocations per dropped value", allocs)
			}
			for from := node.ID(0); from < n; from++ {
				d.Deliver(from, &aaa.Value{Round: 1, V: bad})
			}
			if len(env.sent) != 1 {
				t.Fatalf("dropped values emitted %v", env.sent[1:])
			}
			for from := node.ID(0); from < n-f; from++ {
				d.Deliver(from, &aaa.Value{Round: 1, V: float64(from)})
			}
			if len(env.sent) != 2 {
				t.Errorf("n-t finite values after dropped ones sent %d messages, want round 2 begun", len(env.sent))
			}
		})
		t.Run(fmt.Sprintf("abraham %g", bad), func(t *testing.T) {
			const n, f, runs = 7, 2, 100
			a, err := aaa.NewAbraham(aaa.AbrahamConfig{Config: node.Config{N: n, F: f}, Rounds: runs + 2}, 1)
			if err != nil {
				t.Fatal(err)
			}
			env := &stubEnv{n: n, f: f}
			a.Init(env)
			sent := len(env.sent)
			payload := f64(bad)
			i := 0
			if allocs := testing.AllocsPerRun(runs, func() {
				a.OnDeliver(rbc.Key{Initiator: node.ID(i % n), Tag: uint32(2 + i)}, payload)
				i++
			}); allocs != 0 {
				t.Errorf("%.1f allocations per dropped value", allocs)
			}
			for j := node.ID(0); j < n; j++ {
				a.OnDeliver(rbc.Key{Initiator: j, Tag: 1}, payload)
			}
			if len(env.sent) != sent {
				t.Fatalf("dropped values emitted %v", env.sent[sent:])
			}
			for j := node.ID(0); j < n-f; j++ {
				a.OnDeliver(rbc.Key{Initiator: j, Tag: 1}, f64(float64(j)))
			}
			if len(env.sent) != sent+1 {
				t.Errorf("n-t finite values after dropped ones sent %d messages, want one report", len(env.sent)-sent)
			} else if _, ok := env.sent[sent].(*aaa.Report); !ok {
				t.Errorf("n-t finite values sent %T, want a report", env.sent[sent])
			}
		})
	}
}
