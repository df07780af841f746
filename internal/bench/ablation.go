package bench

import (
	"fmt"

	"delphi/internal/core"
	"delphi/internal/sim"
)

// OracleDefaultParams exposes the oracle-network Delphi parameterisation
// for external callers (benchmarks, examples).
func OracleDefaultParams() core.Params { return oracleParamsBandwidth() }

// AblationSingleLevel compares the paper's §III-B1 single-level strawman
// (ρ0 = Δ, so l_M = 0) against full multi-level Delphi on identical
// clustered inputs. The strawman terminates but pays a validity relaxation
// of order Δ even when δ is small — the motivation for the multi-level
// design (Fig. 2 vs Fig. 3).
func (e *Engine) AblationSingleLevel(n int, seed int64) (single, multi *RunStats, err error) {
	f := faults(n)
	delta := 10.0
	// The centre sits off the coarse checkpoint grid (multiples of 2000$),
	// where the strawman's weighted average pulls the output toward the
	// nearest coarse checkpoints — the Fig. 2 failure mode.
	inputs := OracleInputs(n, 41500, delta, seed)
	multiParams := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 2000, Eps: 2}
	singleParams := core.Params{S: 0, E: 100000, Rho0: 2000, Delta: 2000, Eps: 2}

	stats, err := e.labelledBatch("ablation", []RunSpec{
		{Protocol: ProtoDelphi, N: n, F: f, Env: sim.AWS(), Seed: seed, Inputs: inputs, Delphi: singleParams},
		{Protocol: ProtoDelphi, N: n, F: f, Env: sim.AWS(), Seed: seed, Inputs: inputs, Delphi: multiParams},
	}, []string{"single-level", "multi-level"})
	if err != nil {
		return nil, nil, err
	}
	return stats[0], stats[1], nil
}

// EpsRow is one ε setting's measurement in the AblationEps sweep.
type EpsRow struct {
	// Name labels the setting ("eps=8", ...).
	Name string
	// Eps is the agreement distance.
	Eps float64
	// Rounds is the derived r_M.
	Rounds int
	// Spread is the measured output spread (must stay < Eps).
	Spread float64
	// LatencyMS is the measured latency in milliseconds.
	LatencyMS float64
	// MB is the measured traffic in megabytes.
	MB float64
}

// AblationEps sweeps the agreement distance ε: each halving of ε adds a
// round (r_M = ceil(log2(1/ε'))) and must tighten the measured spread.
func (e *Engine) AblationEps(n int, seed int64) ([]*EpsRow, error) {
	f := faults(n)
	epss := []float64{16, 8, 4, 2, 1}
	var specs []RunSpec
	var labels []string
	params := make([]core.Params, len(epss))
	for i, eps := range epss {
		params[i] = core.Params{S: 0, E: 100000, Rho0: eps, Delta: 2048, Eps: eps}
		specs = append(specs, RunSpec{
			Protocol: ProtoDelphi, N: n, F: f, Env: sim.AWS(), Seed: seed,
			Inputs: OracleInputs(n, 41000, 20, seed), Delphi: params[i],
		})
		labels = append(labels, fmt.Sprintf("eps=%g", eps))
	}
	stats, err := e.labelledBatch("ablation", specs, labels)
	if err != nil {
		return nil, err
	}
	var rows []*EpsRow
	for i, st := range stats {
		rows = append(rows, &EpsRow{
			Name:      labels[i],
			Eps:       epss[i],
			Rounds:    params[i].Rounds(n),
			Spread:    st.Spread,
			LatencyMS: float64(st.Latency.Milliseconds()),
			MB:        float64(st.TotalBytes) / 1e6,
		})
	}
	return rows, nil
}

// AblationCompression measures the §II-C delta/bitmap wire encoding: the
// same Delphi run with compression on and off, comparing bytes on the wire
// (the paper's log log(1/ε') factor in practice).
func (e *Engine) AblationCompression(n int, seed int64) (compressed, plain *RunStats, err error) {
	f := faults(n)
	inputs := OracleInputs(n, 41000, 20, seed)
	p := oracleParamsBandwidth()
	stats, err := e.labelledBatch("ablation", []RunSpec{
		{Protocol: ProtoDelphi, N: n, F: f, Env: sim.AWS(), Seed: seed, Inputs: inputs, Delphi: p},
		{Protocol: ProtoDelphi, N: n, F: f, Env: sim.AWS(), Seed: seed, Inputs: inputs, Delphi: p, NoCompression: true},
	}, []string{"compression on", "compression off"})
	if err != nil {
		return nil, nil, err
	}
	return stats[0], stats[1], nil
}

// AblationCoinCost runs the FIN baseline on CPS-grade hardware under the
// real pairing-class coin cost and under a hypothetical hash-cheap coin
// (the HashRand direction the paper cites), quantifying how much of FIN's
// CPS latency is threshold-coin compute.
func (e *Engine) AblationCoinCost(n int, seed int64) (pairingCoin, hashCoin *RunStats, err error) {
	f := faults(n)
	inputs := OracleInputs(n, 500, 5, seed)
	p := cpsParams()

	envSlow := sim.CPS()
	envFast := sim.CPS()
	envFast.Cost.Pairing = envFast.Cost.Hash // hash-based coin shares
	stats, err := e.labelledBatch("ablation", []RunSpec{
		{Protocol: ProtoFIN, N: n, F: f, Env: envSlow, Seed: seed, Inputs: inputs, Delphi: p},
		{Protocol: ProtoFIN, N: n, F: f, Env: envFast, Seed: seed, Inputs: inputs, Delphi: p},
	}, []string{"pairing coin", "hash coin"})
	if err != nil {
		return nil, nil, err
	}
	return stats[0], stats[1], nil
}

// AblationFaults measures Delphi under its full fault budget: a clean run,
// f crash faults, and f Byzantine spammers on identical inputs — the
// scenario-matrix fault axes applied as a designed ablation. Crash faults
// shrink the echo quorums' slack; the spammer bloats state and traffic.
func (e *Engine) AblationFaults(n int, seed int64) (clean, crashed, byzantine *RunStats, err error) {
	f := faults(n)
	base := Scenario{
		Name:     "faults",
		Protocol: ProtoDelphi,
		N:        n,
		Env:      sim.AWS(),
		Params:   oracleParamsBandwidth(),
		Center:   41000,
		Delta:    20,
	}
	crash := base
	crash.Crashes = f
	byzant := base
	byzant.Byzantine = f
	byzant.ByzKind = ByzSpam
	stats, err := e.labelledBatch("ablation", []RunSpec{
		base.Spec(seed, 0),
		crash.Spec(seed, 0),
		byzant.Spec(seed, 0),
	}, []string{"clean", "crash", "byzantine"})
	if err != nil {
		return nil, nil, nil, err
	}
	return stats[0], stats[1], stats[2], nil
}
