// Byzantine fault injection: agreement despite equivocators, spammers, and
// adversarial scheduling.
//
// Run with:
//
//	go run ./examples/byzantine
//
// Ten nodes (t = 3): seven honest with clustered prices, one crashed,
// one equivocating about far-away checkpoints, and one flooding junk
// checkpoints — under the simulated geo-distributed AWS network with an
// adversarial delay rule slowing one honest node's traffic. The honest
// outputs still ε-agree inside the relaxed honest range.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"delphi/internal/binaa"
	"delphi/internal/byz"
	"delphi/internal/core"
	"delphi/internal/node"
	"delphi/internal/sim"
)

func main() {
	const n, f = 10, 3
	cfg := core.Config{
		Config: node.Config{N: n, F: f},
		Params: core.Params{S: 0, E: 100_000, Rho0: 2, Delta: 256, Eps: 2},
	}

	procs := make([]node.Process, n)
	honest := map[int]float64{}
	rng := rand.New(rand.NewSource(99))
	for i := 3; i < n; i++ {
		v := 50_000 + rng.Float64()*30
		d, err := core.New(cfg, v)
		if err != nil {
			log.Fatal(err)
		}
		procs[i] = d
		honest[i] = v
	}
	procs[0] = nil               // crashed
	procs[1] = &byz.Equivocator{ // lies differently to each half
		CheckA: binaa.IID{Level: 0, K: 5_000},
		CheckB: binaa.IID{Level: 0, K: 20_000},
	}
	procs[2] = &byz.Spammer{ // floods junk checkpoints
		Rng:      rand.New(rand.NewSource(1)),
		Levels:   cfg.Params.Levels(),
		KMin:     10_000,
		KMax:     30_000,
		PerRound: 4,
	}

	// Adversarial scheduler: node 3's messages crawl.
	slow := func(_ time.Duration, from, to node.ID, _ node.Message) time.Duration {
		if from == 3 {
			return 250 * time.Millisecond
		}
		return 0
	}

	runner, err := sim.NewRunner(cfg.Config, sim.AWS(), 7, procs, sim.WithDelayRule(slow))
	if err != nil {
		log.Fatal(err)
	}
	res := runner.Run()

	m, M := math.Inf(1), math.Inf(-1)
	for _, v := range honest {
		m = math.Min(m, v)
		M = math.Max(M, v)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 3; i < n; i++ {
		st := res.Stats[i]
		if len(st.Output) == 0 {
			log.Fatalf("node %d produced no output", i)
		}
		r := st.Output[len(st.Output)-1].(core.Result)
		fmt.Printf("node %d: input %.3f -> output %.4f (decided at %v)\n",
			i, honest[i], r.Output, st.OutputAt.Round(time.Millisecond))
		lo = math.Min(lo, r.Output)
		hi = math.Max(hi, r.Output)
	}
	relax := math.Max(cfg.Params.Rho0, M-m)
	fmt.Printf("honest inputs [%.3f, %.3f]; outputs [%.4f, %.4f]\n", m, M, lo, hi)
	fmt.Printf("spread %.5f < ε=%.0f: %v;  within relaxed validity: %v\n",
		hi-lo, cfg.Params.Eps, hi-lo < cfg.Params.Eps,
		lo >= m-relax && hi <= M+relax)
	fmt.Printf("simulated traffic: %.2f MB in %d messages, virtual time %v\n",
		float64(res.TotalBytes)/1e6, res.TotalMsgs, res.Time.Round(time.Millisecond))
}
