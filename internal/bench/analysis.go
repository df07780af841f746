package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"delphi/internal/core"
	"delphi/internal/dist"
	"delphi/internal/feeds"
	"delphi/internal/sim"
	"delphi/internal/vision"
)

// FitReport is a histogram plus competing distribution fits (Figs. 4/5).
type FitReport struct {
	// Name identifies the figure.
	Name string
	// Histogram is the binned data.
	Histogram *dist.Histogram
	// Fits holds the candidate distributions.
	Fits []dist.Distribution
	// KS holds each candidate's KS statistic, aligned with Fits.
	KS []float64
	// Best is the name of the winning fit.
	Best string
	// MeanValue is the sample mean.
	MeanValue float64
	// Text renders the histogram with model overlays.
	Text string
}

// scoreFits computes each candidate's KS statistic against the samples and
// returns the index of the lowest-KS (winning) candidate, or -1 if none
// scores (an all-NaN KS must not count as a perfect fit).
func scoreFits(samples []float64, cands []dist.Distribution) (ks []float64, bestIdx int) {
	bestIdx = -1
	bestKS := 2.0
	for i, c := range cands {
		k := dist.KS(samples, c)
		ks = append(ks, k)
		if k < bestKS {
			bestIdx, bestKS = i, k
		}
	}
	return ks, bestIdx
}

func buildFitReport(name string, samples []float64, hmin, hmax float64, bins int, cands []dist.Distribution) *FitReport {
	r := &FitReport{Name: name, Fits: cands}
	r.Histogram = dist.NewHistogram(samples, hmin, hmax, bins)
	r.MeanValue, _ = dist.Moments(samples)
	var bestIdx int
	r.KS, bestIdx = scoreFits(samples, cands)
	if bestIdx >= 0 {
		r.Best = cands[bestIdx].Name()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — mean=%.3f best-fit=%s\n", name, r.MeanValue, r.Best)
	for i, c := range cands {
		fmt.Fprintf(&b, "  %-10s KS=%.4f %+v\n", c.Name(), r.KS[i], c)
	}
	b.WriteString(r.Histogram.Render(40, cands...))
	r.Text = b.String()
	return r
}

// Fig4 reproduces the Bitcoin price-range study: two weeks of synthetic
// ten-exchange quotes, the per-minute δ histogram, and the Fréchet-vs-Gumbel
// extreme-value fits (the paper finds Fréchet α=4.41, scale 29.3 wins).
// The sample corpus is drawn from the shared per-seed cache (corpus.go).
func Fig4(seed int64) (*FitReport, error) {
	ranges, err := Fig4Ranges(seed)
	if err != nil {
		return nil, err
	}
	var cands []dist.Distribution
	if fre, err := dist.FitFrechet(ranges); err == nil {
		cands = append(cands, fre)
	}
	cands = append(cands, dist.FitGumbel(ranges))
	return buildFitReport("fig4: bitcoin range δ (USD)", ranges, 0, 70, 35, cands), nil
}

// Fig5 reproduces the IoU study: 80 000 synthetic detections, the IoU
// histogram, and the Gamma-vs-Fréchet fits (Gamma wins, mean 0.87). The
// sample corpus is drawn from the shared per-seed cache (corpus.go).
func Fig5(seed int64) (*FitReport, error) {
	ious, err := Fig5IoUs(seed)
	if err != nil {
		return nil, err
	}
	cands := []dist.Distribution{dist.FitGamma(ious)}
	if fre, err := dist.FitFrechet(ious); err == nil {
		cands = append(cands, fre)
	}
	return buildFitReport("fig5: detection IoU", ious, 0.35, 1.0, 26, cands), nil
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
	// Text is the rendered row.
	Text string
}

// Validity runs the §VI-E validity-relaxation comparison: several seeds of
// realistic inputs per application, measuring how far Delphi's and FIN's
// outputs sit from the honest mean. The paper reports Delphi ≈2x the
// baseline's distance (25$ vs 12.5$ on the oracle; 2.6m vs 1.3m on drones).
// All trials of both applications run as one engine batch.
func (e *Engine) Validity(scale Scale, seed int64) ([]*ValidityReport, error) {
	trials := 3
	n := 16
	if scale == Paper {
		trials = 8
		n = 40
	}
	f := faults(n)

	apps := []struct {
		name   string
		params core.Params
		inputs func(trial int64) []float64
	}{
		{
			name:   "oracle",
			params: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 2000, Eps: 2},
			inputs: func(trial int64) []float64 {
				m, _ := feeds.NewMarket(feeds.DefaultConfig(), seed+trial)
				snap := m.Tick(0)
				out := make([]float64, n)
				for i := range out {
					out[i] = snap.Quotes[i%len(snap.Quotes)]
				}
				return out
			},
		},
		{
			name:   "drones",
			params: core.Params{S: 0, E: 2000, Rho0: 0.5, Delta: 50, Eps: 0.5},
			inputs: func(trial int64) []float64 {
				model := vision.DefaultModel()
				rng := rand.New(rand.NewSource(seed + trial))
				pts := model.DroneInputs(n, vision.Point{X: 500, Y: 500}, rng)
				out := make([]float64, n)
				for i, p := range pts {
					out[i] = p.X
				}
				return out
			},
		},
	}

	// Expand every (app, trial) into a Delphi and a FIN spec, batch them
	// all, then fold per-app aggregates.
	var specs []RunSpec
	var labels []string
	deltaMeans := make([]float64, len(apps))
	for ai, app := range apps {
		for t := 0; t < trials; t++ {
			inputs := app.inputs(int64(t))
			lo, hi := inputs[0], inputs[0]
			for _, v := range inputs {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			deltaMeans[ai] += hi - lo
			for _, proto := range []Protocol{ProtoDelphi, ProtoFIN} {
				specs = append(specs, RunSpec{
					Protocol: proto, N: n, F: f, Env: sim.AWS(),
					Seed: seed + int64(t), Inputs: inputs, Delphi: app.params,
				})
				labels = append(labels, fmt.Sprintf("%s %s trial %d", app.name, proto, t))
			}
		}
	}
	stats, err := e.labelledBatch("validity", specs, labels)
	if err != nil {
		return nil, err
	}

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
		rep.Text = fmt.Sprintf("%-8s mean δ=%.3f  |Delphi−mean|=%.3f  |FIN−mean|=%.3f  ratio=%.2f",
			rep.App, rep.DeltaMean, rep.DelphiErr, rep.BaselineErr, rep.DelphiErr/rep.BaselineErr)
		reports = append(reports, rep)
	}
	return reports, nil
}

// TailReport is the latency-tail analysis: the protocol's per-trial
// completion latencies over many seeds, with Gumbel-vs-Fréchet extreme-
// value fits in the style of the paper's Fig. 4 methodology applied to the
// harness' own measurements.
type TailReport struct {
	// Scenario is the measured workload.
	Scenario Scenario
	// Agg holds the streaming summary (latency samples retained).
	Agg *Aggregate
	// Fits and KS hold the candidate tail fits and their KS statistics.
	Fits []dist.Distribution
	KS   []float64
	// Best names the winning fit.
	Best string
	// P99 is the winning fit's 0.99 quantile (milliseconds).
	P99 float64
	// Text is the rendered summary.
	Text string
}

// LatencyTail measures Delphi's completion-latency distribution over many
// trials of the oracle workload and fits the candidate extreme-value
// models to it. Scale selects the trial count and parameterisation:
// Quick uses Table I's Δ=256$ sizing so the sweep stays subsecond per
// trial; Paper uses the full Fig. 6b oracle parameterisation.
func (e *Engine) LatencyTail(scale Scale, seed int64) (*TailReport, error) {
	trials := 12
	n := 16
	params := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2}
	if scale == Paper {
		trials = 48
		n = 40
		params = OracleDefaultParams()
	}
	sc := Scenario{
		Name:     "latency-tail",
		Protocol: ProtoDelphi,
		N:        n,
		Env:      sim.AWS(),
		Params:   params,
		Center:   41000,
		Delta:    20,
		Trials:   trials,
	}
	cells, err := e.RunScenarios([]Scenario{sc}, seed, true)
	if err != nil {
		return nil, err
	}
	res := cells[0]
	samples := res.Agg.LatencyMS.Samples
	rep := &TailReport{Scenario: sc, Agg: res.Agg}
	if fre, err := dist.FitFrechet(samples); err == nil {
		rep.Fits = append(rep.Fits, fre)
	}
	rep.Fits = append(rep.Fits, dist.FitGumbel(samples))
	var bestIdx int
	rep.KS, bestIdx = scoreFits(samples, rep.Fits)
	if bestIdx >= 0 {
		rep.Best = rep.Fits[bestIdx].Name()
		rep.P99 = rep.Fits[bestIdx].Quantile(0.99)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "latency tail — %s n=%d trials=%d: mean=%.1fms max=%.1fms best-fit=%s p99=%.1fms\n",
		sc.Protocol, sc.N, trials, res.Agg.LatencyMS.Mean(), res.Agg.LatencyMS.Max(), rep.Best, rep.P99)
	for i, c := range rep.Fits {
		fmt.Fprintf(&b, "  %-10s KS=%.4f %+v\n", c.Name(), rep.KS[i], c)
	}
	rep.Text = b.String()
	return rep, nil
}
