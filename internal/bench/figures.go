package bench

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
	// Paper uses the paper's full node counts (two cores, seed 1: ~80 s for
	// the Fig. 6a+6b batch, ~40 s for Fig. 6c, ~10 s for Fig. 7).
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

// oracleParams is the paper's oracle-network Delphi configuration, Δ = 2000$
// and ε = 2$, at checkpoint spacing ρ0: 10$ for the runtime plot (Fig. 6a),
// ε for the bandwidth plot (Fig. 6b) and OracleDefaultParams.
func oracleParams(rho0 float64) core.Params {
	return core.Params{S: 0, E: 100000, Rho0: rho0, Delta: 2000, Eps: 2}
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

// fig6Testbed is what the panels of one Fig. 6 batch share.
type fig6Testbed struct {
	env                            sim.Environment
	ns                             []int
	center, deltaSmall, deltaLarge float64
	labelSmall, labelLarge         string
}

// fig6Panel is one Fig. 6 panel: its Delphi parameterisation and metric.
type fig6Panel struct {
	name, title string
	params      core.Params
	metric      func(*RunStats) float64
}

// fig6 builds Fig. 6 panels over one testbed from one engine batch. Per n,
// largest first so the longest runs start first, it runs Abraham et al. and
// FIN at the small range once for every panel, then Delphi at both ranges
// under each panel's parameters. FIN reads no Delphi parameter, and Abraham
// et al. reads only Δ/ε (its round count), on which the panels must agree.
func (e *Engine) fig6(tb fig6Testbed, seed int64, panels ...fig6Panel) ([]*Figure, error) {
	p0 := panels[0].params
	for _, p := range panels[1:] {
		if p.params.Delta/p.params.Eps != p0.Delta/p0.Eps {
			return nil, fmt.Errorf("%s: Δ/ε = %g, but %s has %g; Abraham et al. cannot serve both", p.name, p.params.Delta/p.params.Eps, panels[0].name, p0.Delta/p0.Eps)
		}
	}
	names := []string{"Delphi " + tb.labelSmall, "Delphi " + tb.labelLarge, "FIN", "Abraham et al. " + tb.labelSmall}
	var specs []RunSpec
	var labels []string
	for _, n := range slices.Backward(tb.ns) {
		run := func(proto Protocol, inputs []float64, p core.Params, label string) {
			specs = append(specs, RunSpec{Protocol: proto, N: n, F: faults(n), Env: tb.env, Seed: seed, Inputs: inputs, Delphi: p})
			labels = append(labels, fmt.Sprintf("n=%d %s", n, label))
		}
		inSmall := OracleInputs(n, tb.center, tb.deltaSmall, seed)
		inLarge := OracleInputs(n, tb.center, tb.deltaLarge, seed+1)
		run(ProtoAbraham, inSmall, p0, names[3])
		run(ProtoFIN, inSmall, p0, names[2])
		for _, pn := range panels {
			run(ProtoDelphi, inSmall, pn.params, pn.name+" "+names[0])
			run(ProtoDelphi, inLarge, pn.params, pn.name+" "+names[1])
		}
	}
	stats, err := e.labelledBatch("fig6", specs, labels)
	if err != nil {
		return nil, err
	}
	figs := make([]*Figure, len(panels))
	for i, pn := range panels {
		series := make([]Series, len(names))
		for j, n := range tb.ns {
			row := stats[(len(tb.ns)-1-j)*(2*len(panels)+2):]
			for k, st := range []*RunStats{row[2+2*i], row[3+2*i], row[1], row[0]} {
				s := &series[k]
				s.Label, s.X, s.Y = names[k], append(s.X, float64(n)), append(s.Y, pn.metric(st))
			}
		}
		figs[i] = &Figure{Name: pn.name, Title: pn.title, Series: series}
		renderFigure(figs[i], "protocol", "n")
	}
	return figs, nil
}

func latencyMS(st *RunStats) float64 { return float64(st.Latency) / float64(time.Millisecond) }
func trafficMB(st *RunStats) float64 { return float64(st.TotalBytes) / 1e6 }

// Fig6AWS reproduces Fig. 6's AWS panels from one batch, "Runtime vs n"
// (6a, ms of virtual latency) and "Network bandwidth vs n" (6b, MB): Delphi
// at δ=20$ and δ=180$ under each panel's ρ0, then FIN and Abraham et al. at
// δ=20$, which run once per n for both panels.
func (e *Engine) Fig6AWS(scale Scale, seed int64) (runtime, bandwidth *Figure, err error) {
	figs, err := e.fig6(fig6Testbed{
		env: sim.AWS(), ns: awsNodeCounts(scale), center: 41000,
		deltaSmall: 20, deltaLarge: 180, labelSmall: "δ=20$", labelLarge: "δ=180$",
	}, seed,
		fig6Panel{"fig6a", "Runtime vs n on AWS (ms)", oracleParams(10), latencyMS},
		fig6Panel{"fig6b", "Bandwidth vs n on AWS (MB)", OracleDefaultParams(), trafficMB})
	if err != nil {
		return nil, nil, err
	}
	return figs[0], figs[1], nil
}

// Fig6c reproduces "Runtime vs n on the embedded (CPS) testbed": Delphi at
// δ=5m and δ=50m, FIN, Abraham et al. at δ=5m, in milliseconds.
func (e *Engine) Fig6c(scale Scale, seed int64) (*Figure, error) {
	figs, err := e.fig6(fig6Testbed{
		env: sim.CPS(), ns: cpsNodeCounts(scale), center: 500,
		deltaSmall: 5, deltaLarge: 50, labelSmall: "δ=5m", labelLarge: "δ=50m",
	}, seed, fig6Panel{"fig6c", "Runtime vs n on CPS testbed (ms)", cpsParams(), latencyMS})
	if err != nil {
		return nil, err
	}
	return figs[0], nil
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
