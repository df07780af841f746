package aaa_test

import (
	"math"
	"testing"

	"delphi/internal/aaa"
	"delphi/internal/node"
	"delphi/internal/sim"
)

func TestAbrahamConvergence(t *testing.T) {
	n, f := 7, 2
	rounds := 10
	inputs := []float64{100, 110, 120, 130, 140, 150, 160}
	cfg := aaa.AbrahamConfig{Config: node.Config{N: n, F: f}, Rounds: rounds}
	procs := make([]node.Process, n)
	for i, v := range inputs {
		p, err := aaa.NewAbraham(cfg, v)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	r, err := sim.NewRunner(cfg.Config, sim.Local(), 3, procs)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range procs {
		st := res.Stats[i]
		if len(st.Output) == 0 {
			t.Fatalf("node %d: no output (liveness); vtime=%v", i, res.Time)
		}
		ar := st.Output[len(st.Output)-1].(aaa.AbrahamResult)
		if ar.Output < 100 || ar.Output > 160 {
			t.Errorf("node %d output %g outside honest range (convex validity)", i, ar.Output)
		}
		lo = math.Min(lo, ar.Output)
		hi = math.Max(hi, ar.Output)
	}
	eps := 60 / math.Pow(2, float64(rounds)) * 2 // range halves per round (x2 slack)
	if hi-lo > eps {
		t.Errorf("spread %g > %g after %d rounds", hi-lo, eps, rounds)
	}
}

func TestAbrahamWithCrashes(t *testing.T) {
	n, f := 10, 3
	cfg := aaa.AbrahamConfig{Config: node.Config{N: n, F: f}, Rounds: 8}
	procs := make([]node.Process, n)
	for i := 0; i < n; i++ {
		if i < f { // crash f nodes
			continue
		}
		p, err := aaa.NewAbraham(cfg, 50+float64(i))
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	r, err := sim.NewRunner(cfg.Config, sim.AWS(), 4, procs)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	for i := f; i < n; i++ {
		if len(res.Stats[i].Output) == 0 {
			t.Fatalf("node %d: no output despite %d crashes", i, f)
		}
	}
}

func TestDolevConvergence(t *testing.T) {
	n, f := 6, 1 // 5t+1
	rounds := 12
	cfg := aaa.DolevConfig{N: n, F: f, Rounds: rounds}
	inputs := []float64{0, 10, 20, 30, 40, 50}
	procs := make([]node.Process, n)
	for i, v := range inputs {
		p, err := aaa.NewDolev(cfg, v)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	r, err := sim.NewRunner(node.Config{N: n, F: f}, sim.Local(), 5, procs)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range procs {
		st := res.Stats[i]
		if len(st.Output) == 0 {
			t.Fatalf("node %d: no output", i)
		}
		dr := st.Output[len(st.Output)-1].(aaa.DolevResult)
		if dr.Output < 0 || dr.Output > 50 {
			t.Errorf("node %d output %g outside honest range", i, dr.Output)
		}
		lo = math.Min(lo, dr.Output)
		hi = math.Max(hi, dr.Output)
	}
	if hi-lo > 50/math.Pow(2, float64(rounds))*4 {
		t.Errorf("spread %g too large", hi-lo)
	}
}

func TestDolevRejectsLowResilience(t *testing.T) {
	cfg := aaa.DolevConfig{N: 5, F: 1, Rounds: 3}
	if _, err := aaa.NewDolev(cfg, 1); err == nil {
		t.Fatal("expected resilience error for n=5, t=1")
	}
}

// stubEnv records what a single process under direct test sends and outputs.
type stubEnv struct {
	n, f    int
	sent    []node.Message
	outputs []any
	halted  bool
}

func (e *stubEnv) Self() node.ID                    { return 0 }
func (e *stubEnv) N() int                           { return e.n }
func (e *stubEnv) F() int                           { return e.f }
func (e *stubEnv) Send(_ node.ID, m node.Message)   { e.sent = append(e.sent, m) }
func (e *stubEnv) Broadcast(m node.Message)         { e.sent = append(e.sent, m) }
func (e *stubEnv) Output(v any)                     { e.outputs = append(e.outputs, v) }
func (e *stubEnv) Halt()                            { e.halted = true }
func (e *stubEnv) ChargeCompute(c node.ComputeCost) {}

// TestDolevReceiptHygiene pins what a round counts: one finite value per
// sender, senders and rounds inside the configuration only — a duplicate, an
// unknown sender ID, a round outside [1, Rounds] or a NaN must neither advance
// the quorum nor enter the trimmed midpoint.
func TestDolevReceiptHygiene(t *testing.T) {
	d, err := aaa.NewDolev(aaa.DolevConfig{N: 6, F: 1, Rounds: 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	env := &stubEnv{n: 6, f: 1}
	d.Init(env)
	val := func(from node.ID, round uint16, v float64) { d.Deliver(from, &aaa.Value{Round: round, V: v}) }
	val(0, 1, 10)
	val(1, 1, 20)
	val(1, 1, 999)  // duplicate sender
	val(-1, 1, 999) // sender IDs outside [0, n)
	val(6, 1, 999)
	val(1<<40, 1, 999)
	val(2, 0, 999) // rounds outside [1, Rounds]
	val(2, 3, 999)
	val(2, 1, 30)
	val(3, 1, 40)
	if len(env.sent) != 1 {
		t.Fatalf("round 2 began after four distinct receipts (quorum is 5): sent %d messages", len(env.sent))
	}
	val(4, 1, 50)
	// Five receipts 10..50, trim t = 1 from each side: the midpoint is 30.
	if len(env.sent) != 2 {
		t.Fatalf("round 2 did not begin at quorum: sent %d messages", len(env.sent))
	}
	if got := env.sent[1].(*aaa.Value); got.Round != 2 || got.V != 30 {
		t.Fatalf("round 2 broadcast = %+v, want round 2 value 30", got)
	}
	val(5, 2, math.NaN()) // not a receipt: node 5 may still send a value
	for i, v := range []float64{28, 29, 31, 32} {
		val(node.ID(i), 2, v)
	}
	if env.halted || len(env.outputs) != 0 {
		t.Fatalf("decided on four numbers and a NaN (quorum is 5): outputs %v", env.outputs)
	}
	val(5, 2, 0)
	// 0 28 29 31 32, trim t = 1 from each side: the midpoint of 28 and 31.
	if !env.halted || len(env.outputs) != 1 {
		t.Fatalf("no decision after round 2's quorum (halted=%v outputs=%d)", env.halted, len(env.outputs))
	}
	if got := env.outputs[0].(aaa.DolevResult); got.Output != 29.5 || got.Rounds != 2 {
		t.Errorf("decision = %+v, want output 29.5 after 2 rounds", got)
	}
}

// TestDolevRoundHalves builds by hand the round on which trimming 2t a side
// keeps the honest range whole: n=6, t=1, honest nodes 0..4 hold 0, 0, 1, 1,
// 1 and node 5 is Byzantine. Node A misses a 0 and hears 1 from node 5; node
// B misses a 1 and hears 0. Each round must at least halve the honest range.
func TestDolevRoundHalves(t *testing.T) {
	honest := []float64{0, 0, 1, 1, 1}
	decide := func(miss node.ID, byz float64) float64 {
		d, err := aaa.NewDolev(aaa.DolevConfig{N: 6, F: 1, Rounds: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		env := &stubEnv{n: 6, f: 1}
		d.Init(env)
		for i, v := range honest {
			if node.ID(i) != miss {
				d.Deliver(node.ID(i), &aaa.Value{Round: 1, V: v})
			}
		}
		d.Deliver(5, &aaa.Value{Round: 1, V: byz})
		if len(env.outputs) != 1 {
			t.Fatalf("no decision on 5 receipts")
		}
		return env.outputs[0].(aaa.DolevResult).Output
	}
	a, b := decide(0, 1), decide(4, 0)
	if spread := math.Abs(a - b); spread > 0.5 {
		t.Errorf("outputs %g and %g: spread %g from an honest range of 1, want ≤ 0.5", a, b, spread)
	}
	for _, v := range []float64{a, b} {
		if v < 0 || v > 1 {
			t.Errorf("output %g outside the honest range [0, 1]", v)
		}
	}
}
