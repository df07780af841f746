package run_test

import (
	"testing"

	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/netadv"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// TestDolevJitterStormAgrees pins the simulator run on which trimming 2t a
// side never converged: Dolev n=6, t=1 under a full-severity jitter storm,
// seed 57, Δ=64 and ε=2 (5 rounds). With 2t trimmed it ended at spread 14.05
// from an input range of 20; with t trimmed every round halves, and run.Run's
// ε-agreement check passes.
func TestDolevJitterStormAgrees(t *testing.T) {
	const n, seed = 6, 57
	st, err := run.Run(run.RunSpec{
		Protocol:  run.ProtoDolev,
		N:         n,
		F:         run.ProtoDolev.Faults(n),
		Env:       sim.AWS(),
		Seed:      seed,
		Inputs:    bench.OracleInputs(n, 41000, 20, seed),
		Delphi:    core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2},
		Adversary: netadv.Adversary{Kind: netadv.JitterStorm, Severity: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Five halvings of a range of 20 leave at most 20/32.
	if st.Spread > 20.0/32 {
		t.Errorf("spread %g after 5 rounds from a range of 20, want ≤ %g", st.Spread, 20.0/32)
	}
}
