package bench

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"delphi/internal/core"
	"delphi/internal/dist"
	"delphi/internal/feeds"
	"delphi/internal/sim"
	"delphi/internal/vision"
)

// FitReport is a histogram plus competing distribution fits (Figs. 4/5).
type FitReport struct {
	// Best is the name of the winning fit.
	Best string
	// MeanValue is the sample mean.
	MeanValue float64
	// Text renders the histogram with model overlays.
	Text string
}

// extremeValueFits fits the Fréchet (when it converges) and Gumbel
// extreme-value models to samples.
func extremeValueFits(samples []float64) []dist.Distribution {
	var cands []dist.Distribution
	if fre, err := dist.FitFrechet(samples); err == nil {
		cands = append(cands, fre)
	}
	return append(cands, dist.FitGumbel(samples))
}

// scoreFits renders one line per candidate with its KS statistic against
// the samples and returns the lowest-KS (winning) candidate, or nil if none
// scores (an all-NaN KS must not count as a perfect fit).
func scoreFits(samples []float64, cands []dist.Distribution) (string, dist.Distribution) {
	var b strings.Builder
	var best dist.Distribution
	bestKS := 2.0
	for _, c := range cands {
		k := dist.KS(samples, c)
		fmt.Fprintf(&b, "  %-10s KS=%.4f %+v\n", c.Name(), k, c)
		if k < bestKS {
			best, bestKS = c, k
		}
	}
	return b.String(), best
}

// fitReport renders the samples' histogram over [hmin, hmax] with the
// candidate fits overlaid.
func fitReport(name string, samples []float64, hmin, hmax float64, bins int, cands []dist.Distribution) *FitReport {
	r := &FitReport{}
	r.MeanValue, _ = dist.Moments(samples)
	lines, best := scoreFits(samples, cands)
	if best != nil {
		r.Best = best.Name()
	}
	r.Text = fmt.Sprintf("%s — mean=%.3f best-fit=%s\n", name, r.MeanValue, r.Best) + lines +
		dist.NewHistogram(samples, hmin, hmax, bins).Render(40, cands...)
	return r
}

// fig4 reproduces the Bitcoin price-range study: two weeks of synthetic
// ten-exchange quotes, the per-minute δ histogram, and the Fréchet-vs-Gumbel
// extreme-value fits (the paper finds Fréchet α=4.41, scale 29.3 wins).
func fig4(_ Scale, seed int64) Plan[*FitReport] {
	return Plan[*FitReport]{Reduce: func([]*RunStats) (*FitReport, error) {
		m, err := feeds.NewMarket(feeds.DefaultConfig(), seed)
		if err != nil {
			return nil, err
		}
		ranges := feeds.Ranges(m.Collect(feeds.TwoWeeks))
		return fitReport("fig4: bitcoin range δ (USD)", ranges, 0, 70, 35, extremeValueFits(ranges)), nil
	}}
}

// fig5 reproduces the IoU study: 80 000 synthetic detections, the IoU
// histogram, and the Gamma-vs-Fréchet fits (Gamma wins, mean 0.87).
func fig5(_ Scale, seed int64) Plan[*FitReport] {
	return Plan[*FitReport]{Reduce: func([]*RunStats) (*FitReport, error) {
		model := vision.DefaultModel()
		if err := model.Validate(); err != nil {
			return nil, err
		}
		ious := model.SampleIoUs(80000, rand.New(rand.NewSource(seed)))
		cands := []dist.Distribution{dist.FitGamma(ious)}
		if fre, err := dist.FitFrechet(ious); err == nil {
			cands = append(cands, fre)
		}
		return fitReport("fig5: detection IoU", ious, 0.35, 1.0, 26, cands), nil
	}}
}

// ValidityReport is the §VI-E analysis: expected distance between a
// protocol's output and the honest input mean, for Delphi vs the strict
// convex-validity baseline, in both applications.
type ValidityReport struct {
	// App names the application ("oracle", "drones").
	App string
	// DelphiErr is Delphi's mean |output − mean(honest inputs)|.
	DelphiErr float64
	// BaselineErr is FIN's mean distance.
	BaselineErr float64
	// DeltaMean is the mean honest range over the trials.
	DeltaMean float64
}

// validity runs the §VI-E validity-relaxation comparison: several seeds of
// realistic inputs per application, measuring how far Delphi's and FIN's
// outputs sit from the honest mean. The paper reports Delphi ≈2x the
// baseline's distance (25$ vs 12.5$ on the oracle; 2.6m vs 1.3m on drones).
func validity(scale Scale, seed int64) Plan[[]*ValidityReport] {
	trials := 3
	n := 16
	if scale == Paper {
		trials = 8
		n = 40
	}
	apps := []struct {
		name   string
		params core.Params
		inputs func(trial int64) []float64
	}{
		{"oracle", OracleDefaultParams(), func(trial int64) []float64 {
			m, _ := feeds.NewMarket(feeds.DefaultConfig(), seed+trial)
			quotes := m.Tick(0).Quotes
			out := make([]float64, n)
			for i := range out {
				out[i] = quotes[i%len(quotes)]
			}
			return out
		}},
		{"drones", cpsParams(), func(trial int64) []float64 {
			pts := vision.DefaultModel().DroneInputs(n, vision.Point{X: 500, Y: 500}, rand.New(rand.NewSource(seed+trial)))
			out := make([]float64, n)
			for i, p := range pts {
				out[i] = p.X
			}
			return out
		}},
	}

	// Every (app, trial) runs Delphi and FIN.
	var s Plan[[]*ValidityReport]
	deltaMeans := make([]float64, len(apps))
	for ai, app := range apps {
		for t := 0; t < trials; t++ {
			inputs := app.inputs(int64(t))
			deltaMeans[ai] += slices.Max(inputs) - slices.Min(inputs)
			for _, proto := range []Protocol{ProtoDelphi, ProtoFIN} {
				s.add(RunSpec{
					Protocol: proto, N: n, F: proto.Faults(n), Env: sim.AWS(),
					Seed: seed + int64(t), Inputs: inputs, Delphi: app.params,
				}, fmt.Sprintf("%s %s trial %d", app.name, proto, t))
			}
		}
	}
	s.Reduce = func(stats []*RunStats) ([]*ValidityReport, error) {
		var reports []*ValidityReport
		for ai, app := range apps {
			rep := &ValidityReport{App: app.name, DeltaMean: deltaMeans[ai] / float64(trials)}
			base := ai * trials * 2
			for t := 0; t < trials; t++ {
				rep.DelphiErr += stats[base+2*t].MeanAbsErr
				rep.BaselineErr += stats[base+2*t+1].MeanAbsErr
			}
			rep.DelphiErr /= float64(trials)
			rep.BaselineErr /= float64(trials)
			reports = append(reports, rep)
		}
		return reports, nil
	}
	return s
}

// TailReport is the latency-tail analysis: the protocol's per-trial
// completion latencies over many seeds, with Gumbel-vs-Fréchet extreme-
// value fits in the style of the paper's Fig. 4 methodology applied to the
// harness' own measurements.
type TailReport struct {
	// Agg holds the streaming summary (latency samples retained).
	Agg *Aggregate
	// Fits holds the candidate tail fits.
	Fits []dist.Distribution
	// Best names the winning fit.
	Best string
	// P99 is the winning fit's 0.99 quantile (milliseconds).
	P99 float64
	// Text is the rendered summary.
	Text string
}

// latencyTail measures Delphi's completion-latency distribution over many
// trials of the oracle workload and fits the candidate extreme-value
// models to it. Quick uses Table I's Δ=256$ sizing so the sweep stays
// subsecond per trial; Paper uses the full Fig. 6b oracle parameterisation.
func latencyTail(scale Scale, seed int64) Plan[*TailReport] {
	sc := Scenario{
		Name:     "latency-tail",
		Protocol: ProtoDelphi,
		N:        16,
		Env:      sim.AWS(),
		Params:   core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2},
		Center:   41000,
		Delta:    20,
		Trials:   12,
	}
	if scale == Paper {
		sc.N, sc.Params, sc.Trials = 40, OracleDefaultParams(), 48
	}
	var s Plan[*TailReport]
	for i, spec := range sc.Specs(seed) {
		s.add(spec, fmt.Sprintf("trial %d", i))
	}
	s.Reduce = func(stats []*RunStats) (*TailReport, error) {
		agg := aggregates([]Scenario{sc}, stats, true)[0]
		samples := agg.LatencyMS.Samples
		rep := &TailReport{Agg: agg, Fits: extremeValueFits(samples)}
		lines, best := scoreFits(samples, rep.Fits)
		if best != nil {
			rep.Best, rep.P99 = best.Name(), best.Quantile(0.99)
		}
		rep.Text = fmt.Sprintf("latency tail — %s n=%d trials=%d: mean=%.1fms max=%.1fms best-fit=%s p99=%.1fms\n%s",
			sc.Protocol, sc.N, sc.Trials, agg.LatencyMS.Mean(), agg.LatencyMS.Max(), rep.Best, rep.P99, lines)
		return rep, nil
	}
	return s
}
