package bench_test

import (
	"math"
	"strings"
	"testing"

	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/run"
	"delphi/internal/sim"
)

func scenarioParams() core.Params {
	return core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2}
}

// TestShapedInputsPinRange checks that every shape pins the exact δ and
// keeps all samples inside it.
func TestShapedInputsPinRange(t *testing.T) {
	for _, shape := range []bench.InputShape{bench.ShapePinned, bench.ShapeSkewed, bench.ShapeClustered} {
		in := bench.ShapedInputs(shape, 12, 100, 20, 5)
		if len(in) != 12 {
			t.Fatalf("%s: len = %d", shape, len(in))
		}
		lo, hi := in[0], in[0]
		for _, v := range in {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if math.Abs((hi-lo)-20) > 1e-9 {
			t.Errorf("%s: range = %g, want exactly 20", shape, hi-lo)
		}
		if lo < 90-1e-9 || hi > 110+1e-9 {
			t.Errorf("%s: samples [%g, %g] escape the δ window", shape, lo, hi)
		}
	}
}

// TestScenarioValidate pins the fault-budget and shape checks.
func TestScenarioValidate(t *testing.T) {
	base := bench.Scenario{
		Name: "t", Protocol: run.ProtoDelphi, N: 16, Env: sim.AWS(),
		Params: scenarioParams(), Center: 41000, Delta: 20,
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	over := base
	over.Crashes = 3
	over.Byzantine = 3 // 6 > f = 5
	if err := over.Validate(); err == nil {
		t.Error("fault budget overflow not rejected")
	}
	tiny := base
	tiny.N = 3
	if err := tiny.Validate(); err == nil {
		t.Error("n < 4 not rejected")
	}
	flat := base
	flat.Delta = 0
	if err := flat.Validate(); err == nil {
		t.Error("delta = 0 not rejected")
	}
}

// TestMatrixExpansion checks the cross-product, cell naming, and per-cell
// fault re-derivation.
func TestMatrixExpansion(t *testing.T) {
	m := bench.Matrix{
		Base: bench.Scenario{
			Protocol: run.ProtoDelphi, Env: sim.AWS(), Params: scenarioParams(),
			Center: 41000, Delta: 20, Trials: 2,
		},
		Ns:        []int{16, 40},
		Shapes:    []bench.InputShape{bench.ShapePinned, bench.ShapeClustered},
		ByzCounts: []int{0, 1},
	}
	cells := m.Scenarios()
	if len(cells) != 8 {
		t.Fatalf("cells = %d, want 2*2*2 = 8", len(cells))
	}
	names := make(map[string]bool)
	for _, c := range cells {
		if names[c.Name] {
			t.Errorf("duplicate cell name %q", c.Name)
		}
		names[c.Name] = true
		if c.Trials != 2 {
			t.Errorf("%s: trials = %d, want base's 2", c.Name, c.Trials)
		}
	}
	if !names["aws/n=40/δ=20/clustered/byz=1"] {
		t.Errorf("expected cell name missing; have %v", names)
	}
}

// TestMatrixDolevFaultBudget runs a Dolev matrix at n=16 with its whole
// fault budget crashed: the budget is Dolev's (n-1)/5 = 3, not (n-1)/3,
// at the base's n as at every other.
func TestMatrixDolevFaultBudget(t *testing.T) {
	m := bench.Matrix{
		Base: bench.Scenario{
			Protocol: run.ProtoDolev, N: 16, Env: sim.AWS(), Params: scenarioParams(),
			Center: 41000, Delta: 20, Crashes: 3,
		},
		Ns: []int{16, 21},
	}
	cells, err := bench.NewEngine(2).RunMatrix(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if got, want := c.Agg.Trials, 1; got != want {
			t.Errorf("%s: trials = %d, want %d", c.Scenario.Name, got, want)
		}
	}
	m.Base.Crashes = 4
	if _, err := bench.NewEngine(2).RunMatrix(m, 5); err == nil {
		t.Error("4 crashes under Dolev at n=16 (budget 3) not rejected")
	}
}

// TestScenarioFaultInjection runs Delphi with crashes and each Byzantine
// behaviour: the run must complete, report only honest outputs, and keep
// the ε-agreement guarantee among them (up to f total faults).
func TestScenarioFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test")
	}
	for _, kind := range []run.ByzKind{run.ByzSpam, run.ByzEquivocate} {
		s := bench.Scenario{
			Name: "faults", Protocol: run.ProtoDelphi, N: 8, Env: sim.AWS(),
			Params: scenarioParams(), Center: 41000, Delta: 20,
			Crashes: 1, Byzantine: 1, ByzKind: kind, Trials: 1,
		}
		cells, err := bench.NewEngine(2).RunScenarios([]bench.Scenario{s}, 9, false)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		res := cells[0]
		if res.Agg.Trials != 1 {
			t.Fatalf("kind %d: trials = %d", kind, res.Agg.Trials)
		}
		if spread := res.Agg.Spread.Max(); spread >= s.Params.Eps {
			t.Errorf("kind %d: honest spread %g >= eps %g", kind, spread, s.Params.Eps)
		}
	}
}

// TestRunReportsOnlyHonestOutputs pins the fault accounting in Run: with
// one crash and one Byzantine node, exactly n-2 outputs remain.
func TestRunReportsOnlyHonestOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test")
	}
	n := 8
	inputs := bench.OracleInputs(n, 41000, 20, 11)
	inputs[2] = math.NaN()
	st, err := run.Run(run.RunSpec{
		Protocol: run.ProtoDelphi, N: n, F: 2, Env: sim.AWS(), Seed: 11,
		Inputs: inputs, Delphi: scenarioParams(),
		Byzantine: 1, ByzKind: run.ByzSpam,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Outputs) != n-2 {
		t.Errorf("outputs = %d, want %d (n minus crash minus byzantine)", len(st.Outputs), n-2)
	}
}

// TestRunMatrixAggregates runs a 2-cell matrix end to end.
func TestRunMatrixAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test")
	}
	m := bench.Matrix{
		Base: bench.Scenario{
			Protocol: run.ProtoDelphi, N: 8, Env: sim.AWS(),
			Params: scenarioParams(), Center: 41000, Delta: 20, Trials: 2,
		},
		Shapes: []bench.InputShape{bench.ShapePinned, bench.ShapeSkewed},
	}
	cells, err := bench.NewEngine(4).RunMatrix(m, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	for _, c := range cells {
		if c.Agg.Trials != 2 {
			t.Errorf("%s: trials = %d, want 2", c.Scenario.Name, c.Agg.Trials)
		}
		if !(c.Agg.LatencyMS.Mean() > 0) || !(c.Agg.MB.Mean() > 0) {
			t.Errorf("%s: degenerate aggregate %+v", c.Scenario.Name, c.Agg)
		}
		if !strings.Contains(c.Scenario.Name, "aws/n=8") {
			t.Errorf("unexpected cell name %q", c.Scenario.Name)
		}
	}
}
