package acs_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"delphi/internal/acs"
	"delphi/internal/node"
	"delphi/internal/sim"
)

// BenchmarkFIN pins the per-event cost of the FIN-style ACS baseline on
// sim.AWS() at a small and a paper-scale size: RBC, ABA and coin vote
// counting are its per-event hot path. An ECHO or READY touches one instance
// in its tag's row and that row's voter slab, a BVAL or AUX one state in its
// round's row and that row's slab; neither allocates past a row's first
// vote. It reports allocations and ns/event.
func BenchmarkFIN(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			events := 0
			for i := 0; i < b.N; i++ {
				seed := int64(i + 1)
				cfg := acs.Config{Config: node.Config{N: n, F: (n - 1) / 3}, CoinSeed: uint64(seed)}
				rng := rand.New(rand.NewSource(seed))
				procs := make([]node.Process, n)
				for j := range procs {
					p, err := acs.New(cfg, 41000+rng.Float64()*20)
					if err != nil {
						b.Fatal(err)
					}
					procs[j] = p
				}
				runner, err := sim.NewRunner(cfg.Config, sim.AWS(), seed, procs, sim.WithMaxTime(time.Hour))
				if err != nil {
					b.Fatal(err)
				}
				res := runner.Run()
				for j := 0; j < n; j++ {
					if len(res.Stats[j].Output) == 0 {
						b.Fatalf("node %d: no output", j)
					}
				}
				events += res.Events
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(events)/float64(b.N), "events/run")
		})
	}
}
