package bench

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"delphi/internal/core"
	"delphi/internal/sim"
)

// Scale selects experiment sizing: Quick for CI/bench runs on a laptop,
// Paper for the full sweeps matching the paper's axes.
type Scale int

// The available scales.
const (
	// Quick caps the node counts so every figure regenerates in seconds.
	Quick Scale = iota + 1
	// Medium reaches n=112 (a couple of minutes per figure on one core).
	Medium
	// Paper uses the paper's full node counts (1–2 minutes per figure on
	// two cores; the Abraham baseline alone is ~40M simulated events at n=160).
	Paper
)

// Series is one plotted line: a label plus (x, y) points.
type Series struct {
	// Label names the line as in the paper's legend.
	Label string
	// X holds the x-axis values (node counts, ratios, ...).
	X []float64
	// Y holds the measured values.
	Y []float64
}

// Figure is a reproduced figure: labelled series plus a text rendering.
type Figure struct {
	// Name identifies the figure ("fig6a", ...).
	Name string
	// Title is the paper's caption lead.
	Title string
	// Series holds the plotted lines.
	Series []Series
	// Text is the formatted table of the series.
	Text string
}

func renderFigure(f *Figure, xLabel, yLabel string) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.Name, f.Title)
	fmt.Fprintf(&b, "%-26s", xLabel+" \\ "+yLabel)
	for _, x := range f.Series[0].X {
		fmt.Fprintf(&b, "%12g", x)
	}
	b.WriteString("\n")
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%-26s", s.Label)
		for _, y := range s.Y {
			if math.IsNaN(y) {
				fmt.Fprintf(&b, "%12s", "-")
			} else {
				fmt.Fprintf(&b, "%12.1f", y)
			}
		}
		b.WriteString("\n")
	}
	f.Text = b.String()
}

// oracleParams is the paper's oracle-network Delphi configuration for the
// runtime plot (Fig. 6a): ρ0 = 10$, Δ = 2000$, ε = 2$.
func oracleParams() core.Params {
	return core.Params{S: 0, E: 100000, Rho0: 10, Delta: 2000, Eps: 2}
}

// oracleParamsBandwidth is Fig. 6b's configuration: ρ0 = ε = 2$.
func oracleParamsBandwidth() core.Params {
	return core.Params{S: 0, E: 100000, Rho0: 2, Delta: 2000, Eps: 2}
}

// cpsParams is the drone-localisation configuration: Δ = 50m, ρ0 = ε = 0.5m.
func cpsParams() core.Params {
	return core.Params{S: 0, E: 2000, Rho0: 0.5, Delta: 50, Eps: 0.5}
}

// awsNodeCounts returns Fig. 6a/6b's x-axis.
func awsNodeCounts(scale Scale) []int {
	switch scale {
	case Paper:
		return []int{16, 64, 112, 160}
	case Medium:
		return []int{16, 40, 112}
	default:
		return []int{16, 40}
	}
}

// cpsNodeCounts returns Fig. 6c's x-axis.
func cpsNodeCounts(scale Scale) []int {
	switch scale {
	case Paper:
		return []int{43, 85, 127, 169}
	case Medium:
		return []int{16, 43, 85}
	default:
		return []int{16, 43}
	}
}

func faults(n int) int { return (n - 1) / 3 }

// labelledBatch runs the specs as one batch, re-labelling a failed trial
// with its experiment-level label.
func (e *Engine) labelledBatch(name string, specs []RunSpec, labels []string) ([]*RunStats, error) {
	stats, err := e.RunBatch(specs)
	if err != nil {
		var te *TrialError
		if errors.As(err, &te) && te.Index < len(labels) {
			return nil, fmt.Errorf("%s %s: %w", name, labels[te.Index], te.Err)
		}
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return stats, nil
}

// fig6Axes describes one Fig. 6 panel: the testbed, node counts, Delphi
// parameterisation, input placement, and the measured metric.
type fig6Axes struct {
	name, title string
	env         sim.Environment
	ns          []int
	params      core.Params
	center      float64
	deltaSmall  float64
	deltaLarge  float64
	labelSmall  string
	labelLarge  string
	metric      func(*RunStats) float64
}

// fig6 builds one Fig. 6 panel: Delphi at two input ranges, FIN, and
// Abraham et al. at the small range, swept over the node counts. All runs
// of the whole panel form one engine batch.
func (e *Engine) fig6(a fig6Axes, seed int64) (*Figure, error) {
	series := []Series{
		{Label: "Delphi " + a.labelSmall},
		{Label: "Delphi " + a.labelLarge},
		{Label: "FIN"},
		{Label: "Abraham et al. " + a.labelSmall},
	}
	var specs []RunSpec
	var labels []string
	for _, n := range a.ns {
		f := faults(n)
		inSmall := OracleInputs(n, a.center, a.deltaSmall, seed)
		inLarge := OracleInputs(n, a.center, a.deltaLarge, seed+1)
		for i, spec := range []RunSpec{
			{Protocol: ProtoDelphi, N: n, F: f, Env: a.env, Seed: seed, Inputs: inSmall, Delphi: a.params},
			{Protocol: ProtoDelphi, N: n, F: f, Env: a.env, Seed: seed, Inputs: inLarge, Delphi: a.params},
			{Protocol: ProtoFIN, N: n, F: f, Env: a.env, Seed: seed, Inputs: inSmall, Delphi: a.params},
			{Protocol: ProtoAbraham, N: n, F: f, Env: a.env, Seed: seed, Inputs: inSmall, Delphi: a.params},
		} {
			specs = append(specs, spec)
			labels = append(labels, fmt.Sprintf("n=%d %s", n, series[i].Label))
		}
	}
	stats, err := e.labelledBatch(a.name, specs, labels)
	if err != nil {
		return nil, err
	}
	for k, st := range stats {
		n := a.ns[k/4]
		s := &series[k%4]
		s.X = append(s.X, float64(n))
		s.Y = append(s.Y, a.metric(st))
	}
	fig := &Figure{Name: a.name, Title: a.title, Series: series}
	renderFigure(fig, "protocol", "n")
	return fig, nil
}

func latencyMS(st *RunStats) float64 { return float64(st.Latency) / float64(time.Millisecond) }
func trafficMB(st *RunStats) float64 { return float64(st.TotalBytes) / 1e6 }

// Fig6a reproduces "Runtime vs n on AWS": Delphi at δ=20$ and δ=180$, FIN,
// and Abraham et al. at δ=20$, as milliseconds of virtual latency.
func (e *Engine) Fig6a(scale Scale, seed int64) (*Figure, error) {
	return e.fig6(fig6Axes{
		name: "fig6a", title: "Runtime vs n on AWS (ms)",
		env: sim.AWS(), ns: awsNodeCounts(scale), params: oracleParams(),
		center: 41000, deltaSmall: 20, deltaLarge: 180,
		labelSmall: "δ=20$", labelLarge: "δ=180$",
		metric: latencyMS,
	}, seed)
}

// Fig6b reproduces "Network bandwidth vs n on AWS" in megabytes.
func (e *Engine) Fig6b(scale Scale, seed int64) (*Figure, error) {
	return e.fig6(fig6Axes{
		name: "fig6b", title: "Bandwidth vs n on AWS (MB)",
		env: sim.AWS(), ns: awsNodeCounts(scale), params: oracleParamsBandwidth(),
		center: 41000, deltaSmall: 20, deltaLarge: 180,
		labelSmall: "δ=20$", labelLarge: "δ=180$",
		metric: trafficMB,
	}, seed)
}

// Fig6c reproduces "Runtime vs n on the embedded (CPS) testbed": Delphi at
// δ=5m and δ=50m, FIN, Abraham et al. at δ=5m, in milliseconds.
func (e *Engine) Fig6c(scale Scale, seed int64) (*Figure, error) {
	return e.fig6(fig6Axes{
		name: "fig6c", title: "Runtime vs n on CPS testbed (ms)",
		env: sim.CPS(), ns: cpsNodeCounts(scale), params: cpsParams(),
		center: 500, deltaSmall: 5, deltaLarge: 50,
		labelSmall: "δ=5m", labelLarge: "δ=50m",
		metric: latencyMS,
	}, seed)
}

// Heatmap is the Fig. 7 result: runtime seconds over the
// (agreement ratio Δ/ε) × (range ratio δ/ρ0) grid. Cells with δ > Δ are
// NaN (infeasible), as in the paper's blank cells.
type Heatmap struct {
	// Env names the testbed.
	Env string
	// AgreementRatios are the row labels (Δ/ε).
	AgreementRatios []float64
	// RangeRatios are the column labels (δ/ρ0).
	RangeRatios []float64
	// Seconds[i][j] is the runtime at row i, column j.
	Seconds [][]float64
	// Text is the rendered grid.
	Text string
}

// Fig7 reproduces the runtime heatmaps on AWS (n=64) and CPS (n=85).
func (e *Engine) Fig7(scale Scale, seed int64) (awsMap, cpsMap *Heatmap, err error) {
	awsN, cpsN := 64, 85
	awsAgr := []float64{2000, 400, 100, 20}
	awsRng := []float64{1, 4, 20, 90}
	cpsAgr := []float64{1000, 400, 100, 20}
	cpsRng := []float64{1, 4, 20, 90}
	if scale == Quick {
		awsN, cpsN = 16, 16
		awsAgr = []float64{400, 20}
		awsRng = []float64{1, 20}
		cpsAgr = []float64{400, 20}
		cpsRng = []float64{1, 20}
	}
	awsMap, err = e.heatmap("aws", sim.AWS(), awsN, 2.0, awsAgr, awsRng, 100000, 41000, seed)
	if err != nil {
		return nil, nil, err
	}
	cpsMap, err = e.heatmap("cps", sim.CPS(), cpsN, 0.5, cpsAgr, cpsRng, 100000, 41000, seed)
	if err != nil {
		return nil, nil, err
	}
	return awsMap, cpsMap, nil
}

func (e *Engine) heatmap(name string, env sim.Environment, n int, eps float64, agr, rng []float64, emax, center float64, seed int64) (*Heatmap, error) {
	h := &Heatmap{Env: name, AgreementRatios: agr, RangeRatios: rng}
	f := faults(n)
	// Expand the feasible cells into one batch, remembering each spec's
	// grid position.
	type cell struct{ i, j int }
	var specs []RunSpec
	var labels []string
	var cells []cell
	h.Seconds = make([][]float64, len(agr))
	for i, ar := range agr {
		h.Seconds[i] = make([]float64, len(rng))
		for j, rr := range rng {
			p := core.Params{S: 0, E: emax, Rho0: eps, Delta: ar * eps, Eps: eps}
			delta := rr * p.Rho0
			if delta > p.Delta {
				h.Seconds[i][j] = math.NaN()
				continue
			}
			specs = append(specs, RunSpec{
				Protocol: ProtoDelphi, N: n, F: f, Env: env, Seed: seed,
				Inputs: OracleInputs(n, center, delta, seed+int64(ar)+int64(rr)),
				Delphi: p,
			})
			labels = append(labels, fmt.Sprintf("%s Δ/ε=%g δ/ρ0=%g", name, ar, rr))
			cells = append(cells, cell{i, j})
		}
	}
	stats, err := e.labelledBatch("fig7", specs, labels)
	if err != nil {
		return nil, err
	}
	for k, st := range stats {
		h.Seconds[cells[k].i][cells[k].j] = st.Latency.Seconds()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fig7 (%s, n=%d) — runtime seconds; rows Δ/ε, cols δ/ρ0\n%10s", name, n, "")
	for _, rr := range rng {
		fmt.Fprintf(&b, "%10g", rr)
	}
	b.WriteString("\n")
	for i, ar := range agr {
		fmt.Fprintf(&b, "%10g", ar)
		for _, v := range h.Seconds[i] {
			if math.IsNaN(v) {
				fmt.Fprintf(&b, "%10s", "-")
			} else {
				fmt.Fprintf(&b, "%10.2f", v)
			}
		}
		b.WriteString("\n")
	}
	h.Text = b.String()
	return h, nil
}
