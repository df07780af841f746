package bench

import (
	"fmt"
	"reflect"
	"testing"

	"delphi/internal/core"
	"delphi/internal/netadv"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// parallelSpec builds the workload the parallel-window and adaptive tests
// share: n=8, δ=20 around 41000, for one (protocol, adversary) pair.
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

// crossAdversaries is the agreement test's adversary axis: a clean
// network plus two presets at reduced severity.
func crossAdversaries() []netadv.Adversary {
	return []netadv.Adversary{
		{},
		{Kind: netadv.SlowF, Severity: 0.25},
		{Kind: netadv.JitterStorm, Severity: 0.25},
	}
}

// TestParallelWindowAgreement runs every protocol, clean and under two
// adversary presets, on one shard (the default) and with 4 workers. Both
// executions keep their outputs within ρ0+ε of the input hull, and since
// the event order does not depend on the sharding, the two RunStats are
// identical.
func TestParallelWindowAgreement(t *testing.T) {
	params := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2}
	const center, delta = 41000.0, 20.0
	for _, proto := range []run.Protocol{run.ProtoDelphi, run.ProtoFIN, run.ProtoAbraham, run.ProtoDolev} {
		for _, adv := range crossAdversaries() {
			t.Run(fmt.Sprintf("%s/%s", proto, adv), func(t *testing.T) {
				spec := parallelSpec(proto, adv, params, center, delta, run.TrialSeed(802, 0))
				one, err := run.Run(spec)
				if err != nil {
					t.Fatalf("one shard: %v", err)
				}
				spec.SimWorkers = 4
				par, err := run.Run(spec)
				if err != nil {
					t.Fatalf("4 workers: %v", err)
				}
				checkTightHull(t, "one shard", one, params, center, delta)
				checkTightHull(t, "par4", par, params, center, delta)
				if !reflect.DeepEqual(par, one) {
					t.Errorf("4 workers diverged from one shard:\n got %+v\nwant %+v", par, one)
				}
			})
		}
	}
}

// TestParallelWindowDeterminism pins the executor's own guarantee at the
// harness layer: identical RunStats for a spec across reruns and across
// worker counts 0 (the default, one shard), 1, 4 and 8 — the per-sender
// sequence numbers make the event order independent of the sharding.
func TestParallelWindowDeterminism(t *testing.T) {
	params := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2}
	const center, delta = 41000.0, 20.0
	adv := netadv.Adversary{Kind: netadv.JitterStorm, Severity: 0.25}
	spec := parallelSpec(run.ProtoFIN, adv, params, center, delta, run.TrialSeed(803, 0))
	base, err := run.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 4, 8} {
		spec.SimWorkers = workers
		got, err := run.Run(spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d: stats diverged from one shard's:\n got %+v\nwant %+v", workers, got, base)
		}
	}
}
