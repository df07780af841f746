// Benchmarks regenerating every table and figure of the paper's evaluation
// at Quick scale (reduced node counts), plus the trial engine and the
// per-delivery hot path; `cmd/experiments -scale paper` runs the full-size
// sweeps.
package delphi_test

import (
	"testing"

	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// BenchmarkExperiments regenerates each experiment of the paper's
// evaluation, one sub-benchmark per entry of bench.Experiments.
func BenchmarkExperiments(b *testing.B) {
	for _, x := range bench.Experiments() {
		b.Run(x.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.NewEngine(0).RunExperiments([]string{x.Name}, bench.Quick, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineMatrix measures the parallel trial engine end to end: a
// scenario grid (input shapes × Byzantine load, two trials each) expanded
// and fanned across the worker pool. The headline metric is trials/sec —
// the harness' aggregate throughput, which scales with GOMAXPROCS.
func BenchmarkEngineMatrix(b *testing.B) {
	m := bench.Matrix{
		Base: bench.Scenario{
			Protocol: run.ProtoDelphi,
			N:        16,
			Env:      sim.AWS(),
			Params:   delphiBenchParams(),
			Center:   41000,
			Delta:    20,
			ByzKind:  run.ByzSpam,
			Trials:   2,
		},
		Shapes:    []bench.InputShape{bench.ShapePinned, bench.ShapeClustered},
		ByzCounts: []int{0, 1},
	}
	trials := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var specs []run.RunSpec
		for _, s := range m.Scenarios() {
			specs = append(specs, s.Specs(int64(i))...)
		}
		if _, err := bench.NewEngine(0).RunBatch(specs); err != nil {
			b.Fatal(err)
		}
		trials += len(specs)
	}
	b.ReportMetric(float64(trials)/b.Elapsed().Seconds(), "trials/s")
}

func delphiBenchParams() core.Params {
	return core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2}
}

// BenchmarkDelphiNodeStep microbenchmarks one node's message-processing
// step in a 16-node cluster (the per-delivery hot path).
func BenchmarkDelphiNodeStep(b *testing.B) {
	b.ReportAllocs()
	st, err := run.Run(run.RunSpec{
		Protocol: run.ProtoDelphi, N: 16, F: 5, Env: sim.Local(), Seed: 1,
		Inputs: bench.OracleInputs(16, 41000, 20, 1),
		Delphi: bench.OracleDefaultParams(),
	})
	if err != nil {
		b.Fatal(err)
	}
	msgs := st.TotalMsgs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := run.Run(run.RunSpec{
			Protocol: run.ProtoDelphi, N: 16, F: 5, Env: sim.Local(), Seed: int64(i),
			Inputs: bench.OracleInputs(16, 41000, 20, int64(i)),
			Delphi: bench.OracleDefaultParams(),
		})
		if err != nil {
			b.Fatal(err)
		}
		msgs += st.TotalMsgs
	}
	b.ReportMetric(float64(msgs)/float64(b.N+1), "msgs_per_run")
}
