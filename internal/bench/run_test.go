package bench_test

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"delphi/internal/aaa"
	"delphi/internal/acs"
	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/node"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// TestOracleInputsEdgeCases pins the degenerate generator inputs: no
// nodes, one node (nothing to pin against), and a zero range.
func TestOracleInputsEdgeCases(t *testing.T) {
	if got := bench.OracleInputs(0, 100, 20, 1); len(got) != 0 {
		t.Errorf("n=0: len = %d, want 0", len(got))
	}
	one := bench.OracleInputs(1, 100, 20, 1)
	if len(one) != 1 {
		t.Fatalf("n=1: len = %d, want 1", len(one))
	}
	if math.Abs(one[0]-100) > 10 {
		t.Errorf("n=1: sample %g outside center±δ/2", one[0])
	}
	two := bench.OracleInputs(2, 100, 20, 1)
	if two[0] != 90 || two[1] != 110 {
		t.Errorf("n=2: pinned extremes = %v, want [90 110]", two)
	}
	for i, v := range bench.OracleInputs(5, 100, 0, 1) {
		if v != 100 {
			t.Errorf("delta=0: sample %d = %g, want exactly 100", i, v)
		}
	}
}

// TestRunToleratesFCrashes runs every protocol with its full crash budget
// flowing through Run as NaN inputs: the run must complete with outputs
// from exactly the live nodes.
func TestRunToleratesFCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test")
	}
	n := 8
	p := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2}
	for _, tc := range []struct {
		proto run.Protocol
		f     int
	}{
		{run.ProtoDelphi, 2},
		{run.ProtoFIN, 2},
		{run.ProtoAbraham, 2},
		{run.ProtoDolev, 1},
	} {
		inputs := bench.OracleInputs(n, 41000, 20, 21)
		for i := 0; i < tc.f; i++ {
			// Crash high slots: slots 0/1 pin the δ extremes.
			inputs[n-1-i] = math.NaN()
		}
		st, err := run.Run(run.RunSpec{
			Protocol: tc.proto, N: n, F: tc.f, Env: sim.AWS(), Seed: 21,
			Inputs: inputs, Delphi: p,
		})
		if err != nil {
			t.Fatalf("%s with %d crashes: %v", tc.proto, tc.f, err)
		}
		if len(st.Outputs) != n-tc.f {
			t.Errorf("%s: outputs = %d, want %d", tc.proto, len(st.Outputs), n-tc.f)
		}
		if st.Latency <= 0 {
			t.Errorf("%s: non-positive latency %v", tc.proto, st.Latency)
		}
	}
}

// TestRunBeyondCrashBudgetFails pins the failure mode when liveness is
// impossible: with f+1 crashes the quorums never fill, the event queue
// drains, and Run reports the missing outputs rather than hanging.
func TestRunBeyondCrashBudgetFails(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test")
	}
	n := 8
	f := 2
	inputs := bench.OracleInputs(n, 41000, 20, 23)
	for i := 0; i < f+1; i++ {
		inputs[n-1-i] = math.NaN()
	}
	_, err := run.Run(run.RunSpec{
		Protocol: run.ProtoDelphi, N: n, F: f, Env: sim.AWS(), Seed: 23,
		Inputs: inputs, Delphi: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2},
	})
	if err == nil {
		t.Fatal("f+1 crashes: want an error, got success")
	}
}

// TestRunUnknownProtocol pins the error path.
func TestRunUnknownProtocol(t *testing.T) {
	_, err := run.Run(run.RunSpec{
		Protocol: "martian", N: 4, F: 1, Env: sim.AWS(), Seed: 1,
		Inputs: bench.OracleInputs(4, 100, 2, 1),
	})
	if err == nil {
		t.Fatal("unknown protocol: want error")
	}
}

// TestRunRejectsBaselineByzantine pins that a Byzantine slot needs a
// protocol with Byzantine behaviours: the baselines have none, and the
// error names crashes as the fault to inject instead of degrading the slot
// to one.
func TestRunRejectsBaselineByzantine(t *testing.T) {
	for _, proto := range []run.Protocol{run.ProtoFIN, run.ProtoAbraham, run.ProtoDolev} {
		_, err := run.Run(run.RunSpec{
			Protocol: proto, N: 16, F: proto.Faults(16), Env: sim.AWS(), Seed: 1,
			Inputs: bench.OracleInputs(16, 41000, 20, 1), Delphi: bench.OracleDefaultParams(),
			Byzantine: 1,
		})
		if err == nil || !strings.Contains(err.Error(), "crash") {
			t.Errorf("%s with a Byzantine slot: err = %v, want a rejection naming crashes", proto, err)
		}
	}
}

// TestRunAllCrashedInputs pins the degenerate all-NaN spec: no live
// process ever outputs, so Run must error rather than divide by zero.
func TestRunAllCrashedInputs(t *testing.T) {
	inputs := make([]float64, 4)
	for i := range inputs {
		inputs[i] = math.NaN()
	}
	_, err := run.Run(run.RunSpec{
		Protocol: run.ProtoDelphi, N: 4, F: 1, Env: sim.AWS(), Seed: 1,
		Inputs: inputs, Delphi: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2},
	})
	if err == nil {
		t.Fatal("all-crashed spec: want error")
	}
	if errors.Is(err, run.ErrGuarantee) {
		t.Errorf("all-crashed spec: %v reads as a broken guarantee", err)
	}
}

// TestStatsFromOutputsChecksGuarantees pins the per-run safety check every
// backend's outputs pass through: ε-agreement, Delphi's relaxed validity
// within max(ρ0, δ) of the honest input range, the baselines' validity
// inside it, and no NaN. The honest inputs span [100, 110], so δ = 10; ε = 2.
func TestStatsFromOutputsChecksGuarantees(t *testing.T) {
	inputs := []float64{100, 110, 104, 106, math.NaN()} // slot 4 crashed
	nan := math.NaN()
	for _, c := range []struct {
		name  string
		proto run.Protocol
		rho0  float64
		outs  []float64
		want  string // "" passes; else a substring of the error
	}{
		{"spread at ε", run.ProtoDelphi, 2, []float64{105, 105, 106, 107}, ""},
		{"spread just over ε", run.ProtoDelphi, 2, []float64{105, 105, 106, 107 + 1e-6}, "agreement violated"},
		{"delphi at hi+δ", run.ProtoDelphi, 2, []float64{120, 120, 120, 120}, ""},
		{"delphi at lo−δ", run.ProtoDelphi, 2, []float64{90, 90, 90, 90}, ""},
		{"delphi beyond hi+δ", run.ProtoDelphi, 2, []float64{120 + 1e-6, 120, 120, 120}, "validity violated"},
		{"delphi beyond lo−δ", run.ProtoDelphi, 2, []float64{90, 90, 90, 90 - 1e-6}, "validity violated"},
		{"delphi at hi+ρ0, ρ0 > δ", run.ProtoDelphi, 16, []float64{126, 126, 126, 126}, ""},
		{"delphi beyond lo−ρ0, ρ0 > δ", run.ProtoDelphi, 16, []float64{84 - 1e-6, 84, 84, 84}, "validity violated"},
		{"fin at hi", run.ProtoFIN, 2, []float64{110, 110, 110, 110}, ""},
		{"fin just above hi", run.ProtoFIN, 2, []float64{110 + 1e-6, 110, 110, 110}, "validity violated"},
		{"abraham just above hi", run.ProtoAbraham, 2, []float64{110, 110 + 1e-6, 110, 110}, "validity violated"},
		{"dolev at lo", run.ProtoDolev, 2, []float64{100, 100, 100, 100}, ""},
		{"dolev just below lo", run.ProtoDolev, 2, []float64{100, 100, 100 - 1e-6, 100}, "validity violated"},
		{"nan output", run.ProtoDelphi, 2, []float64{105, nan, 105, 105}, "validity violated"},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec, finals, at := statsCase(c.proto, c.rho0, inputs, c.outs)
			st, err := spec.StatsFromOutputs(finals, at)
			switch {
			case c.want == "" && err != nil:
				t.Errorf("want stats, got %v", err)
			case c.want != "" && err == nil:
				t.Errorf("want an error with %q, got stats (spread %g, outputs %v)", c.want, st.Spread, st.Outputs)
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Errorf("error %q lacks %q", err, c.want)
			case c.want != "" && !errors.Is(err, run.ErrGuarantee):
				t.Errorf("error %q does not wrap run.ErrGuarantee", err)
			}
		})
	}

	// ε ≈ 0: the runs' own spread of 2 breaks agreement, a guarantee.
	spec, finals, at := statsCase(run.ProtoFIN, 2, inputs, []float64{105, 105, 106, 107})
	spec.Delphi.Eps = 1e-12
	if _, err := spec.StatsFromOutputs(finals, at); !errors.Is(err, run.ErrGuarantee) {
		t.Errorf("ε = 1e-12: err = %v, want one wrapping run.ErrGuarantee", err)
	}

	// FIN's common subset: outputs that are valid and within ε still break
	// it when one node agreed another slot or value, or when every node
	// agreed fewer than n−t slots.
	for _, c := range []struct {
		name  string
		slots []int // the honest slots whose result edit replaces
		edit  func(r acs.Result) acs.Result
	}{
		{"another slot at one node", []int{3}, func(r acs.Result) acs.Result {
			r.Set = []node.ID{0, 1, 2, 4}
			return r
		}},
		{"another value at one node", []int{3}, func(r acs.Result) acs.Result {
			r.Values = []float64{100, 110, 104, 106.5}
			return r
		}},
		{"short of n−t at every node", []int{0, 1, 2, 3}, func(r acs.Result) acs.Result {
			r.Set, r.Values = r.Set[:3], r.Values[:3]
			return r
		}},
	} {
		spec, finals, at := statsCase(run.ProtoFIN, 2, inputs, []float64{105, 105, 105, 105})
		for _, i := range c.slots {
			finals[i] = c.edit(finals[i].(acs.Result))
		}
		if _, err := spec.StatsFromOutputs(finals, at); !errors.Is(err, run.ErrGuarantee) || !strings.Contains(err.Error(), "common subset") {
			t.Errorf("fin, %s: err = %v, want a common-subset run.ErrGuarantee", c.name, err)
		}
	}

	// The check reads only what the assembly already holds: HonestSlots'
	// slice, the RunStats and the growth of its Outputs.
	for _, proto := range []run.Protocol{run.ProtoDelphi, run.ProtoFIN} {
		spec, finals, at = statsCase(proto, 2, inputs, []float64{105, 105, 106, 107})
		if allocs := testing.AllocsPerRun(100, func() { _, _ = spec.StatsFromOutputs(finals, at) }); allocs != 5 {
			t.Errorf("%s: StatsFromOutputs allocates %v times, want 5", proto, allocs)
		}
	}
}

// statsCase builds a spec over inputs and the per-slot finals of a run
// whose honest slots decided outs, in slot order, at 1s. FIN's agree on the
// subset of every honest slot and its input.
func statsCase(proto run.Protocol, rho0 float64, inputs, outs []float64) (run.RunSpec, []any, []time.Duration) {
	spec := run.RunSpec{Protocol: proto, N: len(inputs), F: proto.Faults(len(inputs)), Inputs: inputs, Delphi: core.Params{Rho0: rho0, Eps: 2}}
	finals := make([]any, spec.N)
	at := make([]time.Duration, spec.N)
	var subset acs.Result
	for _, i := range spec.HonestSlots() {
		subset.Set, subset.Values = append(subset.Set, node.ID(i)), append(subset.Values, inputs[i])
	}
	for k, i := range spec.HonestSlots() {
		at[i] = time.Second
		switch proto {
		case run.ProtoFIN:
			finals[i] = acs.Result{Output: outs[k], Set: subset.Set, Values: subset.Values}
		case run.ProtoAbraham:
			finals[i] = aaa.AbrahamResult{Output: outs[k]}
		case run.ProtoDolev:
			finals[i] = aaa.DolevResult{Output: outs[k]}
		default:
			finals[i] = core.Result{Output: outs[k]}
		}
	}
	return spec, finals, at
}
