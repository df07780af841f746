package aaa_test

import (
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
			w := wire.NewWriter(8)
			w.F64(float64(j))
			for from := node.ID(0); from < 2*f+1; from++ {
				a.Deliver(from, &rbc.Ready{Initiator: j, Tag: 1, Payload: w.Bytes()})
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
