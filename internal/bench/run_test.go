package bench_test

import (
	"math"
	"strings"
	"testing"

	"delphi/internal/bench"
	"delphi/internal/core"
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
		proto bench.Protocol
		f     int
	}{
		{bench.ProtoDelphi, 2},
		{bench.ProtoFIN, 2},
		{bench.ProtoAbraham, 2},
		{bench.ProtoDolev, 1},
	} {
		inputs := bench.OracleInputs(n, 41000, 20, 21)
		for i := 0; i < tc.f; i++ {
			// Crash high slots: slots 0/1 pin the δ extremes.
			inputs[n-1-i] = math.NaN()
		}
		st, err := bench.Run(bench.RunSpec{
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
	_, err := bench.Run(bench.RunSpec{
		Protocol: bench.ProtoDelphi, N: n, F: f, Env: sim.AWS(), Seed: 23,
		Inputs: inputs, Delphi: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2},
	})
	if err == nil {
		t.Fatal("f+1 crashes: want an error, got success")
	}
}

// TestRunUnknownProtocol pins the error path.
func TestRunUnknownProtocol(t *testing.T) {
	_, err := bench.Run(bench.RunSpec{
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
	for _, proto := range []bench.Protocol{bench.ProtoFIN, bench.ProtoAbraham, bench.ProtoDolev} {
		_, err := bench.Run(bench.RunSpec{
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
	_, err := bench.Run(bench.RunSpec{
		Protocol: bench.ProtoDelphi, N: 4, F: 1, Env: sim.AWS(), Seed: 1,
		Inputs: inputs, Delphi: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2},
	})
	if err == nil {
		t.Fatal("all-crashed spec: want error")
	}
}
