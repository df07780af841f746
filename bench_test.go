// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding internal/bench experiment at Quick
// scale (reduced node counts) and reports the headline quantities as custom
// metrics; `cmd/experiments -scale paper` runs the full-size sweeps.
package delphi_test

import (
	"testing"

	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/sim"
)

// reportSeries publishes each series' last point as a benchmark metric.
func reportSeries(b *testing.B, fig *bench.Figure, unit string) {
	b.Helper()
	for _, s := range fig.Series {
		if len(s.Y) > 0 {
			b.ReportMetric(s.Y[len(s.Y)-1], sanitizeMetric(s.Label)+"_"+unit)
		}
	}
}

func sanitizeMetric(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ' || r == '=':
			out = append(out, '_')
		}
	}
	return string(out)
}

// BenchmarkTable1 regenerates Table I (convex BA protocol comparison).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.NewEngine(0).Table1(bench.Quick, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table II (Delphi under input conditions).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.NewEngine(0).Table2(bench.Quick, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates Table III (oracle reporting protocols).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table3(bench.Quick, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 regenerates Fig. 4 (Bitcoin range histogram and EVT fits).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Fig4(4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.MeanValue, "mean_delta_usd")
	}
}

// BenchmarkFig5 regenerates Fig. 5 (IoU histogram and Gamma fit).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Fig5(5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.MeanValue, "mean_iou")
	}
}

// BenchmarkFig6AWS regenerates Fig. 6a and 6b (runtime and bandwidth vs n,
// AWS) from their one shared batch.
func BenchmarkFig6AWS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runtime, bandwidth, err := bench.NewEngine(0).Fig6AWS(bench.Quick, 6)
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, runtime, "ms")
		reportSeries(b, bandwidth, "MB")
	}
}

// BenchmarkFig6c regenerates Fig. 6c (runtime vs n, CPS).
func BenchmarkFig6c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.NewEngine(0).Fig6c(bench.Quick, 8)
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, fig, "ms")
	}
}

// BenchmarkFig7 regenerates Fig. 7 (runtime heatmaps, AWS and CPS).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		aws, cps, err := bench.NewEngine(0).Fig7(bench.Quick, 9)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(aws.Seconds[0][0], "aws_corner_s")
		b.ReportMetric(cps.Seconds[0][0], "cps_corner_s")
	}
}

// BenchmarkValidity regenerates the §VI-E validity-relaxation analysis.
func BenchmarkValidity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reps, err := bench.NewEngine(0).Validity(bench.Quick, 10)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reps {
			b.ReportMetric(r.DelphiErr, r.App+"_delphi_err")
			b.ReportMetric(r.BaselineErr, r.App+"_fin_err")
		}
	}
}

// BenchmarkAblationSingleLevel measures the paper's §III-B1 strawman
// (single level, ρ0 = Δ) against multi-level Delphi: same agreement, much
// worse validity relaxation at small δ. The design-choice ablation behind
// Fig. 3.
func BenchmarkAblationSingleLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		single, multi, err := bench.NewEngine(0).AblationSingleLevel(16, 11)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(single.MeanAbsErr, "single_level_abs_err")
		b.ReportMetric(multi.MeanAbsErr, "multi_level_abs_err")
	}
}

// BenchmarkAblationEps sweeps ε: smaller ε buys tighter agreement for more
// rounds (latency): r_M = ceil(log2(1/ε')) grows by one per halving of ε.
func BenchmarkAblationEps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.NewEngine(0).AblationEps(16, 12)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Spread, r.Name+"_spread")
		}
	}
}

// BenchmarkAblationCompression measures the §II-C delta/bitmap wire
// encoding: bytes on the wire with and without compression.
func BenchmarkAblationCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		comp, plain, err := bench.NewEngine(0).AblationCompression(16, 14)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(comp.TotalBytes)/1e6, "compressed_MB")
		b.ReportMetric(float64(plain.TotalBytes)/1e6, "plain_MB")
	}
}

// BenchmarkAblationCoinCost shows the baselines' dependence on threshold-
// coin compute: FIN's latency under pairing-class vs hash-class coin costs
// on CPS-grade hardware. Delphi has no coin at all.
func BenchmarkAblationCoinCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		slow, fast, err := bench.NewEngine(0).AblationCoinCost(16, 13)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(slow.Latency.Seconds(), "fin_pairing_coin_s")
		b.ReportMetric(fast.Latency.Seconds(), "fin_hash_coin_s")
	}
}

// BenchmarkEngineMatrix measures the parallel trial engine end to end: a
// scenario grid (input shapes × Byzantine load, two trials each) expanded
// and fanned across the worker pool. The headline metric is trials/sec —
// the harness' aggregate throughput, which scales with GOMAXPROCS.
func BenchmarkEngineMatrix(b *testing.B) {
	m := bench.Matrix{
		Base: bench.Scenario{
			Protocol: bench.ProtoDelphi,
			N:        16,
			Env:      sim.AWS(),
			Params:   delphiBenchParams(),
			Center:   41000,
			Delta:    20,
			ByzKind:  bench.ByzSpam,
			Trials:   2,
		},
		Shapes:    []bench.InputShape{bench.ShapePinned, bench.ShapeClustered},
		ByzCounts: []int{0, 1},
	}
	trials := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err := bench.NewEngine(0).RunMatrix(m, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			trials += c.Agg.Trials
		}
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
	st, err := bench.Run(bench.RunSpec{
		Protocol: bench.ProtoDelphi, N: 16, F: 5, Env: sim.Local(), Seed: 1,
		Inputs: bench.OracleInputs(16, 41000, 20, 1),
		Delphi: bench.OracleDefaultParams(),
	})
	if err != nil {
		b.Fatal(err)
	}
	msgs := st.TotalMsgs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := bench.Run(bench.RunSpec{
			Protocol: bench.ProtoDelphi, N: 16, F: 5, Env: sim.Local(), Seed: int64(i),
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
