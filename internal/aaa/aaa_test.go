package aaa_test

import (
	"math"
	"slices"
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

// TestDolevReceiptHygiene pins what a round counts: one value per sender,
// senders and rounds inside the configuration only — a duplicate, an unknown
// sender ID, or a round outside [1, Rounds] must neither advance the quorum
// nor enter the trimmed midpoint — and NaNs from up to t faulty senders are
// trimmed like any other outlier.
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
	// Five receipts 10..50, trim 2t = 2 from each side: the midpoint is 30.
	if len(env.sent) != 2 {
		t.Fatalf("round 2 did not begin at quorum: sent %d messages", len(env.sent))
	}
	if got := env.sent[1].(*aaa.Value); got.Round != 2 || got.V != 30 {
		t.Fatalf("round 2 broadcast = %+v, want round 2 value 30", got)
	}
	val(5, 2, math.NaN())
	for i, v := range []float64{28, 29, 31, 32} {
		val(node.ID(i), 2, v)
	}
	// NaN orders first (as under sort.Float64s), among the 2t trimmed low values.
	if !env.halted || len(env.outputs) != 1 {
		t.Fatalf("no decision after round 2's quorum (halted=%v outputs=%d)", env.halted, len(env.outputs))
	}
	if got := env.outputs[0].(aaa.DolevResult); got.Output != 29 || got.Rounds != 2 {
		t.Errorf("decision = %+v, want output 29 after 2 rounds", got)
	}

	// f senders send NaN, wherever in the arrival order: the NaNs order first,
	// inside the 2t trimmed low values, so the decision is the one the same
	// receipts give with -Inf in their place.
	decide := func(vals []float64) float64 {
		d, err := aaa.NewDolev(aaa.DolevConfig{N: 11, F: 2, Rounds: 1}, 5)
		if err != nil {
			t.Fatal(err)
		}
		env := &stubEnv{n: 11, f: 2}
		d.Init(env)
		for i, v := range vals {
			d.Deliver(node.ID(i), &aaa.Value{Round: 1, V: v})
		}
		if len(env.outputs) != 1 {
			t.Fatalf("no decision on %d receipts %v", len(vals), vals)
		}
		return env.outputs[0].(aaa.DolevResult).Output
	}
	nan := math.NaN()
	for _, vals := range [][]float64{
		{nan, nan, 7, 1, 6, 2, 5, 3, 4},
		{7, 1, 6, 2, 5, 3, 4, nan, nan},
		{7, nan, 1, 6, 2, 5, nan, 3, 4},
	} {
		clean := slices.Clone(vals)
		for i, v := range clean {
			if math.IsNaN(v) {
				clean[i] = math.Inf(-1)
			}
		}
		// NaN NaN 1 2 [3] 4 5 6 7: trimming 2t = 4 a side leaves the 3.
		if got, want := decide(vals), decide(clean); got != want || got != 3 {
			t.Errorf("receipts %v decide %v, with -Inf for NaN %v, want 3", vals, got, want)
		}
	}
}
