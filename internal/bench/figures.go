package bench

import (
	"fmt"
	"strings"
	"time"

	"delphi/internal/core"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// Scale selects experiment sizing: Quick for CI/bench runs on a laptop,
// Paper for the full sweeps matching the paper's axes.
type Scale int

// The available scales.
const (
	// Quick caps the node counts so every figure regenerates in seconds.
	Quick Scale = iota + 1
	// Paper uses the paper's full node counts.
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
	// Series holds the plotted lines.
	Series []Series
	// Text is the formatted table of the series.
	Text string
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

// testbed is a Fig. 6 x-axis: an environment, its node counts, and the
// small and large honest input ranges around center.
type testbed struct {
	env                  sim.Environment
	ns                   []int
	center, small, large float64
	unit                 string
}

// awsTestbed is Fig. 6a/6b's axis.
func awsTestbed(scale Scale) testbed {
	tb := testbed{env: sim.AWS(), ns: []int{16, 40}, center: 41000, small: 20, large: 180, unit: "$"}
	if scale == Paper {
		tb.ns = []int{16, 64, 112, 160}
	}
	return tb
}

// cpsTestbed is Fig. 6c's axis.
func cpsTestbed(scale Scale) testbed {
	tb := testbed{env: sim.CPS(), ns: []int{16, 43}, center: 500, small: 5, large: 50, unit: "m"}
	if scale == Paper {
		tb.ns = []int{43, 85, 127, 169}
	}
	return tb
}

// fig6 is one Fig. 6 panel: per n, Delphi under p at the small and the
// large input range, then FIN and Abraham et al. at the small range, with
// metric on the y axis. Panels that share a testbed plan the same FIN and
// Abraham et al. runs, which a batch runs once (run.RunSpec.Key).
func fig6(tb testbed, seed int64, name, title string, p core.Params, metric func(*run.RunStats) float64) Plan[*Figure] {
	labels := []string{
		fmt.Sprintf("Delphi δ=%g%s", tb.small, tb.unit), fmt.Sprintf("Delphi δ=%g%s", tb.large, tb.unit),
		"FIN", fmt.Sprintf("Abraham et al. δ=%g%s", tb.small, tb.unit),
	}
	var s Plan[*Figure]
	for _, n := range tb.ns {
		small := OracleInputs(n, tb.center, tb.small, seed)
		large := OracleInputs(n, tb.center, tb.large, seed+1)
		for i, spec := range []run.RunSpec{{Protocol: run.ProtoDelphi, Inputs: small}, {Protocol: run.ProtoDelphi, Inputs: large},
			{Protocol: run.ProtoFIN, Inputs: small}, {Protocol: run.ProtoAbraham, Inputs: small}} {
			spec.N, spec.F, spec.Env, spec.Seed, spec.Delphi = n, spec.Protocol.Faults(n), tb.env, seed, p
			s.add(spec, fmt.Sprintf("n=%d %s", n, labels[i]))
		}
	}
	s.Reduce = func(stats []*run.RunStats) (*Figure, error) {
		f := &Figure{Series: make([]Series, len(labels))}
		var b strings.Builder
		fmt.Fprintf(&b, "%s — %s\n%-26s", name, title, "protocol \\ n")
		for _, n := range tb.ns {
			fmt.Fprintf(&b, "%12d", n)
		}
		for k, label := range labels {
			sr := &f.Series[k]
			sr.Label = label
			fmt.Fprintf(&b, "\n%-26s", label)
			for j, n := range tb.ns {
				sr.X, sr.Y = append(sr.X, float64(n)), append(sr.Y, metric(stats[j*len(labels)+k]))
				fmt.Fprintf(&b, "%12.1f", sr.Y[j])
			}
		}
		f.Text = b.String() + "\n"
		return f, nil
	}
	return s
}

func fig6a(scale Scale, seed int64) Plan[*Figure] {
	return fig6(awsTestbed(scale), seed, "fig6a", "Runtime vs n on AWS (ms)", oracleParams(10), latencyMS)
}

func fig6b(scale Scale, seed int64) Plan[*Figure] {
	return fig6(awsTestbed(scale), seed, "fig6b", "Bandwidth vs n on AWS (MB)", OracleDefaultParams(), trafficMB)
}

func fig6c(scale Scale, seed int64) Plan[*Figure] {
	return fig6(cpsTestbed(scale), seed, "fig6c", "Runtime vs n on CPS testbed (ms)", cpsParams(), latencyMS)
}

func latencyMS(st *run.RunStats) float64 { return float64(st.Latency) / float64(time.Millisecond) }
func trafficMB(st *run.RunStats) float64 { return float64(st.TotalBytes) / 1e6 }

// fig7 is the pair of runtime heatmaps, AWS at n=64 and CPS at n=85.
func fig7(scale Scale, seed int64) Plan[string] {
	awsN, cpsN := 64, 85
	awsAgr, cpsAgr, rng := []float64{2000, 400, 100, 20}, []float64{1000, 400, 100, 20}, []float64{1, 4, 20, 90}
	if scale == Quick {
		awsN, cpsN = 16, 16
		awsAgr, cpsAgr, rng = []float64{400, 20}, []float64{400, 20}, []float64{1, 20}
	}
	return concat("\n", heatmap("aws", sim.AWS(), awsN, 2.0, awsAgr, rng, seed), heatmap("cps", sim.CPS(), cpsN, 0.5, cpsAgr, rng, seed))
}

// heatmap is one Fig. 7 grid: Delphi's runtime in seconds over the
// agreement ratio Δ/ε (rows) and the range ratio δ/ρ0 (columns). Cells
// with δ > Δ are infeasible and render blank, as in the paper.
func heatmap(name string, env sim.Environment, n int, eps float64, agr, rng []float64, seed int64) Plan[string] {
	var p Plan[string]
	for _, ar := range agr {
		for _, rr := range rng {
			if rr > ar {
				continue
			}
			p.add(run.RunSpec{
				Protocol: run.ProtoDelphi, N: n, F: run.ProtoDelphi.Faults(n), Env: env, Seed: seed,
				Inputs: OracleInputs(n, 41000, rr*eps, seed+int64(ar)+int64(rr)),
				Delphi: core.Params{S: 0, E: 100000, Rho0: eps, Delta: ar * eps, Eps: eps},
			}, fmt.Sprintf("%s Δ/ε=%g δ/ρ0=%g", name, ar, rr))
		}
	}
	p.Reduce = func(stats []*run.RunStats) (string, error) {
		var b strings.Builder
		fmt.Fprintf(&b, "fig7 (%s, n=%d) — runtime seconds; rows Δ/ε, cols δ/ρ0\n%10s", name, n, "")
		for _, rr := range rng {
			fmt.Fprintf(&b, "%10g", rr)
		}
		b.WriteString("\n")
		for _, ar := range agr {
			fmt.Fprintf(&b, "%10g", ar)
			for _, rr := range rng {
				if rr > ar {
					fmt.Fprintf(&b, "%10s", "-")
					continue
				}
				fmt.Fprintf(&b, "%10.2f", stats[0].Latency.Seconds())
				stats = stats[1:]
			}
			b.WriteString("\n")
		}
		return b.String(), nil
	}
	return p
}
