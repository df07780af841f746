package advsearch

import (
	"testing"

	"delphi/internal/run"
)

// BenchmarkAdvSearch measures the worst-case search's probe throughput on
// the quick space and reports the profile's headline numbers as custom
// metrics: best_score (the searched worst case), preset_worst (the
// strongest fixed preset at the same budget), and their ratio
// best_over_preset — the gate scripts/bench.sh enforces (≥ 1.0: the search
// never does worse than the preset grid, by construction).
func BenchmarkAdvSearch(b *testing.B) {
	for _, proto := range []run.Protocol{run.ProtoDelphi, run.ProtoFIN} {
		b.Run(string(proto), func(b *testing.B) {
			cfg := quickConfig(0)
			cfg.Protocol = proto
			var p *Profile
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				p, err = Search(cfg)
				if err != nil {
					b.Fatal(err)
				}
				total += p.Probes
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "probes/sec")
			b.ReportMetric(p.BestScore, "best_score")
			b.ReportMetric(p.PresetBestScore, "preset_worst")
			b.ReportMetric(p.BestScore/p.PresetBestScore, "best_over_preset")
		})
	}
}
