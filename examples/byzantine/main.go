// Byzantine fault injection: agreement despite equivocators, spammers, and
// adversarial scheduling.
//
// Run with:
//
//	go run ./examples/byzantine
//
// Ten nodes (t = 3): seven honest with clustered prices, one crashed, and two
// Byzantine — equivocating about the checkpoints at the honest range's ends
// in one run, flooding junk checkpoints in the other — under the simulated
// geo-distributed AWS network, with a gray-failure adversary slowing half
// the links of one honest node. run.Run checks every run: the honest
// outputs must ε-agree inside the relaxed honest range, or it fails.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"delphi/internal/core"
	"delphi/internal/netadv"
	"delphi/internal/run"
	"delphi/internal/sim"
)

func main() {
	const n, f = 10, 3
	inputs := make([]float64, n)
	rng := rand.New(rand.NewSource(99))
	for i := range inputs {
		inputs[i] = 50_000 + rng.Float64()*30
	}
	inputs[0] = math.NaN() // crashed

	for _, c := range []struct {
		name string
		kind run.ByzKind
	}{
		{"equivocators (conflicting round-1 bundles to each half)", run.ByzEquivocate},
		{"spammers (junk checkpoint echoes)", run.ByzSpam},
	} {
		spec := run.RunSpec{
			Protocol:  run.ProtoDelphi,
			N:         n,
			F:         f,
			Env:       sim.AWS(),
			Seed:      7,
			Inputs:    inputs,
			Delphi:    core.Params{S: 0, E: 100_000, Rho0: 2, Delta: 256, Eps: 2},
			Byzantine: 2,
			ByzKind:   c.kind,
			Adversary: netadv.Adversary{Kind: netadv.Gray},
		}
		st, err := run.Run(spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("nodes %d-%d: %s; node 0 crashed; node %d gray-failed\n", n-spec.Byzantine, n-1, c.name, n/2)
		for _, i := range spec.HonestSlots() {
			fmt.Printf("node %d: input %.3f -> output %.4f (decided at %v)\n",
				i, inputs[i], st.Finals[i].(core.Result).Output, st.DecidedAt[i].Round(time.Millisecond))
		}
		fmt.Printf("spread %.5f < ε=%.0f; simulated traffic: %.2f MB in %d messages, latency %v\n\n",
			st.Spread, spec.Delphi.Eps, float64(st.TotalBytes)/1e6, st.TotalMsgs, st.Latency.Round(time.Millisecond))
	}
}
