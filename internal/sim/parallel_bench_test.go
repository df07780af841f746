package sim_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"delphi/internal/node"
	"delphi/internal/sim"
)

// runFloodN executes one flood run at the given size and round count and
// returns the processed event count (the paired benchmark's work unit).
func runFloodN(b *testing.B, n, rounds int, seed int64, opts ...sim.Option) int {
	b.Helper()
	procs := make([]node.Process, n)
	for i := range procs {
		procs[i] = &flood{rounds: int32(rounds)}
	}
	r, err := sim.NewRunner(node.Config{N: n, F: (n - 1) / 3}, sim.AWS(), seed, procs, opts...)
	if err != nil {
		b.Fatal(err)
	}
	res := r.Run()
	if res.Events == 0 {
		b.Fatal("no events processed")
	}
	return res.Events
}

// BenchmarkSimParallel measures the n=1000+ scale curve and the parallel
// mode's speedup over the sequential loop. Both lanes run inside every
// iteration (paired alternating trials, like BenchmarkTCPFrameThroughput)
// so host drift cannot bias either side, each lane reusing its own Scratch
// across iterations; the parallel lane uses 8 workers. A warm Scratch is what
// a session's trial or a repeated bench.Run sees, and the allocations reported
// here are that case's only: cold/n=1000 is the same parallel lane with no
// Scratch, building its arenas every iteration — what the first run of a
// process pays, and what every one-shot run paid while this benchmark, warm
// alone, showed none of it.
func BenchmarkSimParallel(b *testing.B) {
	for _, sz := range []struct {
		n, rounds int
	}{
		{400, 4},
		{1000, 3},
		{2000, 2},
	} {
		b.Run(fmt.Sprintf("n=%d", sz.n), func(b *testing.B) {
			b.ReportAllocs()
			seqScratch := &sim.Scratch{}
			parScratch := &sim.Scratch{}
			var seqEvents, parEvents int
			var seqTime, parTime time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A full collection before each lane keeps one lane's heap
				// garbage from being collected on the other lane's clock.
				runtime.GC()
				start := time.Now()
				seqEvents += runFloodN(b, sz.n, sz.rounds, 7, sim.WithScratch(seqScratch))
				seqTime += time.Since(start)

				runtime.GC()
				start = time.Now()
				parEvents += runFloodN(b, sz.n, sz.rounds, 7,
					sim.WithScratch(parScratch), sim.WithParallelWindow(8))
				parTime += time.Since(start)
			}
			b.StopTimer()
			seqNS := float64(seqTime.Nanoseconds()) / float64(seqEvents)
			parNS := float64(parTime.Nanoseconds()) / float64(parEvents)
			b.ReportMetric(seqNS, "seq_ns/event")
			b.ReportMetric(parNS, "par_ns/event")
			b.ReportMetric(seqNS/parNS, "parallel_speedup")
			b.ReportMetric(float64(seqEvents)/float64(b.N), "events/run")
		})
	}
	b.Run("cold/n=1000", func(b *testing.B) {
		b.ReportAllocs()
		events := 0
		for i := 0; i < b.N; i++ {
			events += runFloodN(b, 1000, 3, 7, sim.WithParallelWindow(8))
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "par_ns/event")
	})
}
