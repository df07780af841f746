package bench

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"delphi/internal/core"
	"delphi/internal/netadv"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// crossAdversaries is the δ-window tests' adversary axis: a clean network
// plus two presets at reduced severity.
func crossAdversaries() []netadv.Adversary {
	return []netadv.Adversary{
		{},
		{Kind: netadv.SlowF, Severity: 0.25},
		{Kind: netadv.JitterStorm, Severity: 0.25},
	}
}

// parallelSpec builds the δ-window workload shared by the parallel-window
// tests: n=8, δ=20 around 41000, for one (protocol, adversary) pair.
func parallelSpec(proto run.Protocol, adv netadv.Adversary, params core.Params, center, delta float64, seed int64) run.RunSpec {
	n := 8
	f := (n - 1) / 3
	if proto == run.ProtoDolev {
		// Dolev needs n >= 5t+1.
		f = (n - 1) / 5
	}
	return run.RunSpec{
		Protocol:  proto,
		N:         n,
		F:         f,
		Env:       sim.AWS(),
		Seed:      seed,
		Inputs:    OracleInputs(n, center, delta, seed),
		Delphi:    params,
		Adversary: adv,
	}
}

// checkTightHull fails t when st's outputs lie more than ρ0+ε outside the
// input hull [center−δ/2, center+δ/2]. That is tighter than the validity
// every run is held to in StatsFromOutputs (max(ρ0, δ) for Delphi), and
// these specs meet it.
func checkTightHull(t *testing.T, label string, st *run.RunStats, params core.Params, center, delta float64) {
	t.Helper()
	slack := params.Rho0 + params.Eps
	for _, v := range st.Outputs {
		if v < center-delta/2-slack || v > center+delta/2+slack {
			t.Errorf("%s: output %g outside hull [%g, %g]±%g", label, v, center-delta/2, center+delta/2, slack)
		}
	}
}

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestParallelWindowAgreement runs every protocol, clean and under two
// adversary presets, sequentially and with the parallel window executor.
// Parallel runs are not byte-identical to sequential ones (tie-breaking
// differs), so this is the statistical contract: both executions pass the
// per-run agreement and validity check, keep their outputs within ρ0+ε of
// the input hull, and put their means inside one δ-wide window.
func TestParallelWindowAgreement(t *testing.T) {
	params := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2}
	const center, delta = 41000.0, 20.0
	for _, proto := range []run.Protocol{run.ProtoDelphi, run.ProtoFIN, run.ProtoAbraham, run.ProtoDolev} {
		for _, adv := range crossAdversaries() {
			t.Run(fmt.Sprintf("%s/%s", proto, adv), func(t *testing.T) {
				seed := run.TrialSeed(802, 0)
				spec := parallelSpec(proto, adv, params, center, delta, seed)
				seq, err := run.Run(spec)
				if err != nil {
					t.Fatalf("sequential run: %v", err)
				}
				spec.SimWorkers = 4
				par, err := run.Run(spec)
				if err != nil {
					t.Fatalf("parallel run: %v", err)
				}
				checkTightHull(t, "seq", seq, params, center, delta)
				checkTightHull(t, "par4", par, params, center, delta)
				if gap := math.Abs(mean(seq.Outputs) - mean(par.Outputs)); gap > delta+params.Eps {
					t.Errorf("sequential and parallel means %.3g apart (> δ=%g): no common validity window", gap, delta)
				}
			})
		}
	}
}

// TestParallelWindowDeterminism pins the parallel executor's own guarantee
// at the harness layer: identical RunStats for a spec across reruns and
// across worker counts (the per-sender sequence numbers make the event
// order independent of scheduling).
func TestParallelWindowDeterminism(t *testing.T) {
	params := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2}
	const center, delta = 41000.0, 20.0
	adv := netadv.Adversary{Kind: netadv.JitterStorm, Severity: 0.25}
	spec := parallelSpec(run.ProtoFIN, adv, params, center, delta, run.TrialSeed(803, 0))
	spec.SimWorkers = 4
	base, err := run.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		spec.SimWorkers = workers
		got, err := run.Run(spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d: stats diverged from workers=4 baseline:\n got %+v\nwant %+v",
				workers, got, base)
		}
	}
}
