package bench

import (
	"fmt"
	"strings"
	"time"

	"delphi/internal/core"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// OracleDefaultParams exposes the oracle-network Delphi parameterisation
// for external callers (benchmarks, examples).
func OracleDefaultParams() core.Params { return oracleParams(2) }

// ablations are the design ablations at n=16, one text block each.
func ablations(_ Scale, seed int64) Plan[string] {
	const n = 16
	f := run.ProtoDelphi.Faults(n)
	aws := func(inputs []float64, p core.Params) run.RunSpec {
		return run.RunSpec{Protocol: run.ProtoDelphi, N: n, F: f, Env: sim.AWS(), Seed: seed, Inputs: inputs, Delphi: p}
	}
	oracle := OracleInputs(n, 41000, 20, seed)
	return concat("", singleLevel(aws, seed), epsSweep(aws, oracle), compression(aws(oracle, OracleDefaultParams())),
		coinCost(n, seed), faultLoad(n, seed), adversaries(aws(oracle, core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2})))
}

// singleLevel compares the paper's §III-B1 single-level strawman (ρ0 = Δ,
// so l_M = 0) against full multi-level Delphi on identical clustered
// inputs. The strawman terminates but pays a validity relaxation of order
// Δ even when δ is small — the motivation for the multi-level design
// (Fig. 2 vs Fig. 3).
func singleLevel(aws func([]float64, core.Params) run.RunSpec, seed int64) Plan[string] {
	// The centre sits off the coarse checkpoint grid (multiples of 2000$),
	// where the strawman's weighted average pulls the output toward the
	// nearest coarse checkpoints — the Fig. 2 failure mode.
	inputs := OracleInputs(16, 41500, 10, seed)
	return Plan[string]{
		Specs: []run.RunSpec{
			aws(inputs, core.Params{S: 0, E: 100000, Rho0: 2000, Delta: 2000, Eps: 2}),
			aws(inputs, core.Params{S: 0, E: 100000, Rho0: 2, Delta: 2000, Eps: 2}),
		},
		Labels: []string{"single-level", "multi-level"},
		Reduce: func(st []*run.RunStats) (string, error) {
			return fmt.Sprintf("ablation: single-level strawman (ρ0=Δ) vs multi-level, n=16 δ=10$\n"+
				"  single-level |out−mean|=%.1f$   multi-level |out−mean|=%.2f$\n", st[0].MeanAbsErr, st[1].MeanAbsErr), nil
		},
	}
}

// epsSweep sweeps the agreement distance ε: each halving of ε adds a round
// (r_M = ceil(log2(1/ε'))) and must tighten the measured spread.
func epsSweep(aws func([]float64, core.Params) run.RunSpec, inputs []float64) Plan[string] {
	var p Plan[string]
	for _, eps := range []float64{16, 8, 4, 2, 1} {
		p.add(aws(inputs, core.Params{S: 0, E: 100000, Rho0: eps, Delta: 2048, Eps: eps}), fmt.Sprintf("eps=%g", eps))
	}
	p.Reduce = func(stats []*run.RunStats) (string, error) {
		var b strings.Builder
		fmt.Fprintf(&b, "ablation: ε sweep (n=16, δ=20$)\n  %-8s %8s %10s %12s %8s\n", "eps", "rounds", "spread", "latency(ms)", "MB")
		for i, st := range stats {
			fmt.Fprintf(&b, "  %-8s %8d %10.4g %12.0f %8.2f\n", p.Labels[i], p.Specs[i].Delphi.Rounds(16), st.Spread,
				float64(st.Latency.Milliseconds()), float64(st.TotalBytes)/1e6)
		}
		return b.String(), nil
	}
	return p
}

// compression measures the §II-C delta/bitmap wire encoding: the same
// Delphi run with compression on and off, comparing bytes on the wire (the
// paper's log log(1/ε') factor in practice).
func compression(on run.RunSpec) Plan[string] {
	off := on
	off.NoCompression = true
	return Plan[string]{
		Specs:  []run.RunSpec{on, off},
		Labels: []string{"compression on", "compression off"},
		Reduce: func(st []*run.RunStats) (string, error) {
			comp, plain := float64(st[0].TotalBytes), float64(st[1].TotalBytes)
			return fmt.Sprintf("ablation: §II-C wire compression (n=16, δ=20$)\n"+
				"  compressed: %.2f MB   plain: %.2f MB   saving: %.1fx\n", comp/1e6, plain/1e6, plain/comp), nil
		},
	}
}

// coinCost runs the FIN baseline on CPS-grade hardware under the real
// pairing-class coin cost and under a hypothetical hash-cheap coin (the
// HashRand direction the paper cites), quantifying how much of FIN's CPS
// latency is threshold-coin compute.
func coinCost(n int, seed int64) Plan[string] {
	pairing := run.RunSpec{Protocol: run.ProtoFIN, N: n, F: run.ProtoFIN.Faults(n), Env: sim.CPS(), Seed: seed, Inputs: OracleInputs(n, 500, 5, seed), Delphi: cpsParams()}
	hash := pairing
	hash.Env.Cost.Pairing = hash.Env.Cost.Hash // hash-based coin shares
	return Plan[string]{
		Specs:  []run.RunSpec{pairing, hash},
		Labels: []string{"pairing coin", "hash coin"},
		Reduce: func(st []*run.RunStats) (string, error) {
			return fmt.Sprintf("ablation: FIN coin cost on CPS hardware (n=16)\n  pairing-class coin: %s   hash-class coin: %s\n",
				st[0].Latency.Round(time.Millisecond), st[1].Latency.Round(time.Millisecond)), nil
		},
	}
}

// faultLoad measures Delphi under its full fault budget: a clean run, f
// crash faults, and f Byzantine spammers on identical inputs. Crash faults
// shrink the echo quorums' slack; the spammer bloats state and traffic.
func faultLoad(n int, seed int64) Plan[string] {
	clean := Scenario{Name: "faults", Protocol: run.ProtoDelphi, N: n, Env: sim.AWS(), Params: OracleDefaultParams(), Center: 41000, Delta: 20}
	crash, byzant := clean, clean
	crash.Crashes = run.ProtoDelphi.Faults(n)
	byzant.Byzantine = run.ProtoDelphi.Faults(n)
	return Plan[string]{
		Specs:  []run.RunSpec{clean.Spec(seed, 0), crash.Spec(seed, 0), byzant.Spec(seed, 0)},
		Labels: []string{"clean", "crash", "byzantine"},
		Reduce: func(st []*run.RunStats) (string, error) {
			ms := func(i int) time.Duration { return st[i].Latency.Round(time.Millisecond) }
			mb := func(i int) float64 { return float64(st[i].TotalBytes) / 1e6 }
			return fmt.Sprintf("ablation: fault load (n=16, δ=20$, f=5)\n"+
				"  clean: %s %.2fMB   f crashes: %s %.2fMB   f byz spammers: %s %.2fMB\n",
				ms(0), mb(0), ms(1), mb(1), ms(2), mb(2)), nil
		},
	}
}

// adversaries measures Delphi under each network adversary on identical
// inputs. The ε-agreement guarantee must hold in every row (the adversary
// only delays; safety is schedule-independent), while latency degrades per
// preset.
func adversaries(clean run.RunSpec) Plan[string] {
	var p Plan[string]
	for _, adv := range adversaryAxis() {
		spec := clean
		spec.Adversary = adv
		p.add(spec, "adv="+adv.String())
	}
	p.Reduce = func(stats []*run.RunStats) (string, error) {
		var b strings.Builder
		fmt.Fprintf(&b, "ablation: network adversary (Delphi, n=16, δ=20$)\n  %-14s %12s %8s %10s\n", "adversary", "latency(ms)", "MB", "spread")
		for i, st := range stats {
			fmt.Fprintf(&b, "  %-14s %12.0f %8.2f %10.3g\n", p.Specs[i].Adversary, float64(st.Latency.Milliseconds()),
				float64(st.TotalBytes)/1e6, st.Spread)
		}
		return b.String(), nil
	}
	return p
}
