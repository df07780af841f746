package bench

import (
	"fmt"
	"strings"

	"delphi/internal/core"
	"delphi/internal/netadv"
	"delphi/internal/sim"
)

// adversaryAxis is the sweep's adversary list: a clean network followed by
// every named preset at default severity.
func adversaryAxis() []netadv.Adversary {
	return append([]netadv.Adversary{{}}, netadv.Presets()...)
}

// AdversaryReport is the adversary sweep's result: per (protocol, adversary)
// aggregates plus a rendered grid.
type AdversaryReport struct {
	// Protocols are the measured protocols (rows).
	Protocols []Protocol
	// Adversaries are the swept adversaries (columns); index 0 is clean.
	Adversaries []netadv.Adversary
	// Cells holds the aggregates, Cells[i][j] for Protocols[i] under
	// Adversaries[j].
	Cells [][]*Aggregate
	// N and Trials record the sweep sizing.
	N, Trials int
	// Text is the rendered latency grid.
	Text string
}

// AdversarySweep measures every protocol under every network adversary on
// the AWS testbed — the paper's headline robustness claim (agreement under
// an asynchronous adversary) as a measured grid. All (protocol, adversary,
// trial) runs form one engine batch; results are byte-identical across
// reruns and worker counts because each adversary's schedule is a pure
// function of the trial seed.
func (e *Engine) AdversarySweep(scale Scale, seed int64) (*AdversaryReport, error) {
	return e.AdversarySweepOver(scale, seed, adversaryAxis())
}

// AdversarySweepOver is AdversarySweep over an arbitrary adversary column
// set — any parameterisation expressible as netadv.Adversary fields
// (severity, adaptivity, onset), not just the named presets.
// advs[0] is the baseline column the slowdown factors are rendered against;
// pass the zero Adversary there for a clean baseline. Adaptive columns
// render as "…/adv=<kind>@adaptive" in cell names.
func (e *Engine) AdversarySweepOver(scale Scale, seed int64, advs []netadv.Adversary) (*AdversaryReport, error) {
	if len(advs) == 0 {
		return nil, fmt.Errorf("bench: adversary sweep needs at least one column")
	}
	for _, adv := range advs {
		if err := adv.Validate(); err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
	}
	n, trials := 8, 1
	protos := []Protocol{ProtoDelphi, ProtoFIN}
	switch scale {
	case Medium:
		n, trials = 16, 2
		protos = append(protos, ProtoAbraham)
	case Paper:
		n, trials = 40, 3
		protos = append(protos, ProtoAbraham)
	}
	rep := &AdversaryReport{
		Protocols:   protos,
		Adversaries: advs,
		N:           n,
		Trials:      trials,
	}
	params := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2}
	var cells []Scenario
	for _, proto := range protos {
		for _, adv := range rep.Adversaries {
			cells = append(cells, Scenario{
				Name:      fmt.Sprintf("%s/adv=%s", proto, adv),
				Protocol:  proto,
				N:         n,
				Env:       sim.AWS(),
				Params:    params,
				Center:    41000,
				Delta:     20,
				Adversary: adv,
				Trials:    trials,
			})
		}
	}
	res, err := e.RunScenarios(cells, seed, false)
	if err != nil {
		return nil, err
	}
	rep.Cells = make([][]*Aggregate, len(protos))
	for i := range protos {
		rep.Cells[i] = make([]*Aggregate, len(rep.Adversaries))
		for j := range rep.Adversaries {
			rep.Cells[i][j] = res[i*len(rep.Adversaries)+j].Agg
		}
	}
	rep.render()
	return rep, nil
}

// render formats the mean-latency grid with per-adversary slowdown factors.
func (r *AdversaryReport) render() {
	var b strings.Builder
	fmt.Fprintf(&b, "adversary sweep — mean latency ms (×slowdown vs clean), aws n=%d trials=%d\n", r.N, r.Trials)
	fmt.Fprintf(&b, "  %-10s", "protocol")
	for _, adv := range r.Adversaries {
		fmt.Fprintf(&b, "%16s", adv.String())
	}
	b.WriteString("\n")
	for i, p := range r.Protocols {
		fmt.Fprintf(&b, "  %-10s", p)
		clean := r.Cells[i][0].LatencyMS.Mean()
		for j := range r.Adversaries {
			ms := r.Cells[i][j].LatencyMS.Mean()
			if j == 0 {
				fmt.Fprintf(&b, "%16.0f", ms)
			} else {
				fmt.Fprintf(&b, "%10.0f ×%4.1f", ms, ms/clean)
			}
		}
		b.WriteString("\n")
	}
	r.Text = b.String()
}

// AdvRow is one adversary's measurement in the AblationAdversary sweep.
type AdvRow struct {
	// Name labels the row ("none", "slow-f", ...).
	Name string
	// Adversary is the installed network adversary.
	Adversary netadv.Adversary
	// LatencyMS, MB, and Spread are the measured metrics.
	LatencyMS float64
	MB        float64
	Spread    float64
}

// AblationAdversary measures Delphi under each network adversary on
// identical inputs — the designed-ablation view of the adversary axis. The
// ε-agreement guarantee must hold in every row (the adversary only delays;
// safety is schedule-independent), while latency degrades per preset.
func (e *Engine) AblationAdversary(n int, seed int64) ([]*AdvRow, error) {
	f := faults(n)
	inputs := OracleInputs(n, 41000, 20, seed)
	p := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2}
	advs := adversaryAxis()
	var specs []RunSpec
	var labels []string
	for _, adv := range advs {
		specs = append(specs, RunSpec{
			Protocol: ProtoDelphi, N: n, F: f, Env: sim.AWS(), Seed: seed,
			Inputs: inputs, Delphi: p, Adversary: adv,
		})
		labels = append(labels, "adv="+adv.String())
	}
	stats, err := e.labelledBatch("ablation", specs, labels)
	if err != nil {
		return nil, err
	}
	rows := make([]*AdvRow, len(stats))
	for i, st := range stats {
		rows[i] = &AdvRow{
			Name:      advs[i].String(),
			Adversary: advs[i],
			LatencyMS: float64(st.Latency.Milliseconds()),
			MB:        float64(st.TotalBytes) / 1e6,
			Spread:    st.Spread,
		}
	}
	return rows, nil
}
