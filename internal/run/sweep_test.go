package run_test

import (
	"fmt"
	"testing"

	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/netadv"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// sweepAdversaries is the seed sweep's network axis: a clean network, then
// every netadv preset at severity 0.2 and at 1.
func sweepAdversaries() []netadv.Adversary {
	advs := []netadv.Adversary{{}}
	for _, sev := range []float64{0.2, 1} {
		for _, p := range netadv.Presets() {
			p.Severity = sev
			advs = append(advs, p)
		}
	}
	return advs
}

// TestSeedSweep runs every protocol at three sizes up to n=16 under every
// network in sweepAdversaries, over a range of seeds, with the per-run check
// as its oracle: run.Run fails a run whose honest outputs break ε-agreement
// or validity, whose certificate does not verify, or — for Abraham et al.
// and Dolev et al. — whose honest range does not halve in some round. A
// golden pins whatever the code outputs; this sweep asks each run to meet
// the protocol's guarantee instead: with Dolev et al.'s old rule, 2t trimmed
// a side, 24 of the 198 Dolev runs below fail their halving check under
// -short. Under -short it runs 6 seeds, 1 188 runs; otherwise 24.
func TestSeedSweep(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	params := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2}
	// Dolev et al. need n ≥ 5t+1; the two oracle protocols sign and verify
	// a certificate per run, and stop at n=10 to keep the sweep short.
	sizes := map[run.Protocol][]int{run.ProtoDolev: {6, 11, 16}, run.ProtoDora: {4, 7, 10}, run.ProtoChakka: {4, 7, 10}}
	for _, proto := range []run.Protocol{run.ProtoDelphi, run.ProtoFIN, run.ProtoAbraham, run.ProtoDolev, run.ProtoDora, run.ProtoChakka} {
		ns, ok := sizes[proto]
		if !ok {
			ns = []int{4, 7, 16}
		}
		for _, adv := range sweepAdversaries() {
			t.Run(fmt.Sprintf("%s/%s", proto, adv), func(t *testing.T) {
				for _, n := range ns {
					for seed := int64(1); seed <= int64(seeds); seed++ {
						_, err := run.Run(run.RunSpec{
							Protocol:  proto,
							N:         n,
							F:         proto.Faults(n),
							Env:       sim.AWS(),
							Seed:      seed,
							Inputs:    bench.OracleInputs(n, 41000, 20, seed),
							Delphi:    params,
							Adversary: adv,
						})
						if err != nil {
							t.Errorf("n=%d seed=%d: %v", n, seed, err)
						}
					}
				}
			})
		}
	}
}
