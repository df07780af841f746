package aaa_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"delphi/internal/aaa"
	"delphi/internal/node"
	"delphi/internal/sim"
)

// abrahamRun executes one full Abraham simulation at size n and returns the
// event count, so the benchmark can report per-event cost.
func abrahamRun(b *testing.B, n, rounds int, seed int64) int {
	b.Helper()
	f := (n - 1) / 3
	cfg := aaa.AbrahamConfig{Config: node.Config{N: n, F: f}, Rounds: rounds}
	rng := rand.New(rand.NewSource(seed))
	procs := make([]node.Process, n)
	for i := range procs {
		p, err := aaa.NewAbraham(cfg, 41000+rng.Float64()*20)
		if err != nil {
			b.Fatal(err)
		}
		procs[i] = p
	}
	runner, err := sim.NewRunner(cfg.Config, sim.AWS(), seed, procs, sim.WithMaxTime(time.Hour))
	if err != nil {
		b.Fatal(err)
	}
	res := runner.Run()
	for i := 0; i < n; i++ {
		if len(res.Stats[i].Output) == 0 {
			b.Fatalf("node %d: no output", i)
		}
	}
	return res.Events
}

// BenchmarkAbraham pins the per-event cost of the Abraham et al. baseline
// at a small, a mid and a paper-scale size. Run with -benchmem: RBC vote
// counting and the witness check are the per-event hot path, so allocation
// regressions surface here first. A round's ECHOs and READYs count in one
// tag row (instances by initiator, voter sets in one slab), and on the
// simulator every vote's payload is its initiator's own slice, matched by
// identity before any byte compare.
func BenchmarkAbraham(b *testing.B) {
	for _, n := range []int{16, 40, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			events := 0
			for i := 0; i < b.N; i++ {
				events += abrahamRun(b, n, 5, int64(i+1))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(events)/float64(b.N), "events/run")
		})
	}
}
