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

// adversarySweep measures every protocol under every network adversary in
// advs on the AWS testbed — the paper's headline robustness claim
// (agreement under an asynchronous adversary) as a grid of mean latencies,
// each with its slowdown against advs[0], the baseline column. Each
// adversary's schedule is a pure function of the trial seed, so the grid
// is byte-identical across reruns and worker counts. Adaptive columns
// render as "<kind>@adaptive".
func adversarySweep(scale Scale, seed int64, advs []netadv.Adversary) Plan[string] {
	n, trials := 8, 1
	protos := []Protocol{ProtoDelphi, ProtoFIN}
	if scale == Paper {
		n, trials = 40, 3
		protos = append(protos, ProtoAbraham)
	}
	var cells []Scenario
	for _, proto := range protos {
		for _, adv := range advs {
			cells = append(cells, Scenario{
				Name:      fmt.Sprintf("%s/adv=%s", proto, adv),
				Protocol:  proto,
				N:         n,
				Env:       sim.AWS(),
				Params:    core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2},
				Center:    41000,
				Delta:     20,
				Adversary: adv,
				Trials:    trials,
			})
		}
	}
	return scenarioPlan(cells, seed, func(aggs []*Aggregate) (string, error) {
		if len(advs) == 0 {
			return "", fmt.Errorf("bench: adversary sweep needs at least one column")
		}
		var b strings.Builder
		fmt.Fprintf(&b, "adversary sweep — mean latency ms (×slowdown vs clean), aws n=%d trials=%d\n", n, trials)
		fmt.Fprintf(&b, "  %-10s", "protocol")
		for _, adv := range advs {
			fmt.Fprintf(&b, "%16s", adv.String())
		}
		b.WriteString("\n")
		for i, p := range protos {
			fmt.Fprintf(&b, "  %-10s", p)
			row := aggs[i*len(advs) : (i+1)*len(advs)]
			for j, agg := range row {
				ms := agg.LatencyMS.Mean()
				if j == 0 {
					fmt.Fprintf(&b, "%16.0f", ms)
				} else {
					fmt.Fprintf(&b, "%10.0f ×%4.1f", ms, ms/row[0].LatencyMS.Mean())
				}
			}
			b.WriteString("\n")
		}
		return b.String(), nil
	})
}
