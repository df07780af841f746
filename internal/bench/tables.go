package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"delphi/internal/core"
	"delphi/internal/dora"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// TableRow is one measured row of a comparison table.
type TableRow struct {
	// Name labels the row (protocol or condition).
	Name string
	// Cells holds the formatted cell values, aligned with the header.
	Cells []string
}

// Table is a reproduced table.
type Table struct {
	// Rows holds the measured rows.
	Rows []TableRow
	// Text is the rendered table.
	Text string
}

// newTable renders rows under a heading line and a header row, each
// column right-aligned to its widest cell.
func newTable(heading string, header []string, rows []TableRow) *Table {
	all := append([]TableRow{{Name: "protocol", Cells: header}}, rows...)
	widths := make([]int, len(header)+1)
	for _, r := range all {
		widths[0] = max(widths[0], len(r.Name))
		for i, c := range r.Cells {
			widths[i+1] = max(widths[i+1], len(c))
		}
	}
	var b strings.Builder
	b.WriteString(heading + "\n")
	for _, r := range all {
		fmt.Fprintf(&b, "%-*s", widths[0]+2, r.Name)
		for i, c := range r.Cells {
			fmt.Fprintf(&b, "%*s", widths[i+1]+2, c)
		}
		b.WriteString("\n")
	}
	return &Table{Rows: rows, Text: b.String()}
}

// table1 is the measured companion of the paper's Table I: the four convex
// BA protocols on identical inputs, reporting bits on the wire, latency,
// crypto operations, agreement distance, and validity interval slack.
func table1(scale Scale, seed int64) Plan[*Table] {
	n := 16
	if scale == Paper {
		n = 64
	}
	p := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2}
	delta := 20.0
	inputs := OracleInputs(n, 41000, delta, seed)
	m, M := 41000-delta/2, 41000+delta/2
	names := []string{"FIN (ACS)", "Abraham et al.", "Dolev et al. (5t+1)", "Delphi"}
	var s Plan[*Table]
	for i, proto := range []run.Protocol{run.ProtoFIN, run.ProtoAbraham, run.ProtoDolev, run.ProtoDelphi} {
		s.add(run.RunSpec{Protocol: proto, N: n, F: proto.Faults(n), Env: sim.AWS(), Seed: seed, Inputs: inputs, Delphi: p}, names[i])
	}
	s.Reduce = func(stats []*run.RunStats) (*Table, error) {
		var rows []TableRow
		for i, st := range stats {
			slack := 0.0
			for _, o := range st.Outputs {
				slack = math.Max(slack, math.Max(m-o, o-M))
			}
			rows = append(rows, TableRow{Name: names[i], Cells: []string{
				fmt.Sprintf("%.2f", float64(st.TotalBytes)/1e6),
				st.Latency.Round(time.Millisecond).String(),
				fmt.Sprintf("%d", st.Pairings),
				fmt.Sprintf("%.3g", st.Spread),
				fmt.Sprintf("%.3g", slack),
			}})
		}
		return newTable(fmt.Sprintf("table1 — Asynchronous convex BA protocols, measured at n=%d, δ=%.0f$", n, delta),
			[]string{"MB", "latency", "pairings", "spread", "validity-slack"}, rows), nil
	}
	return s
}

// table2 is the paper's Table II: Delphi's communication and rounds under
// the three (Δ, δ) conditions.
func table2(scale Scale, seed int64) Plan[*Table] {
	n := 16
	if scale == Paper {
		n = 64
	}
	eps := 2.0
	conds := []struct {
		name  string
		delta float64 // Δ
		rng   float64 // δ
	}{
		{"Δ=O(ε), δ=O(ε)", 4 * eps, eps},
		{"Δ=f(n)ε, δ=O(ε)", float64(n) * eps, eps},
		{"Δ=f(n)ε, δ=O(Δ)", float64(n) * eps, float64(n) * eps / 2},
	}
	var s Plan[*Table]
	for _, c := range conds {
		s.add(run.RunSpec{
			Protocol: run.ProtoDelphi, N: n, F: run.ProtoDelphi.Faults(n), Env: sim.AWS(), Seed: seed,
			Inputs: OracleInputs(n, 41000, c.rng, seed), Delphi: core.Params{S: 0, E: 100000, Rho0: eps, Delta: c.delta, Eps: eps},
		}, c.name)
	}
	s.Reduce = func(stats []*run.RunStats) (*Table, error) {
		var rows []TableRow
		for i, st := range stats {
			rows = append(rows, TableRow{Name: conds[i].name, Cells: []string{
				fmt.Sprintf("%.2f", float64(st.TotalBytes)/1e6),
				fmt.Sprintf("%d", s.Specs[i].Delphi.Rounds(n)),
				st.Latency.Round(time.Millisecond).String(),
				fmt.Sprintf("%.3g", st.Spread),
			}})
		}
		return newTable(fmt.Sprintf("table2 — Delphi under input conditions, n=%d", n), []string{"MB", "rounds", "latency", "spread"}, rows), nil
	}
	return s
}

// table3 is the paper's Table III: Delphi's DORA layer vs the Chakka et al.
// baseline, measured per attested value: node-to-node and on-chain bytes,
// node-side signs and verifies, the SMR channel's verifications, the
// distinct attested values (Delphi: <= 2), and the time to the first SMR
// submission or the last certificate.
func table3(scale Scale, seed int64) Plan[*Table] {
	n := 16
	if scale == Paper {
		n = 64
	}
	inputs := OracleInputs(n, 41000, 20, seed)
	var s Plan[*Table]
	s.add(run.RunSpec{Protocol: run.ProtoChakka, N: n, F: run.ProtoChakka.Faults(n), Env: sim.AWS(), Seed: seed, Inputs: inputs},
		"DORA (Chakka et al.)")
	s.add(run.RunSpec{Protocol: run.ProtoDora, N: n, F: run.ProtoDora.Faults(n), Env: sim.AWS(), Seed: seed, Inputs: inputs,
		Delphi: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 2000, Eps: 2}}, "Delphi + DORA layer")
	s.Reduce = func(stats []*run.RunStats) (*Table, error) {
		var rows []TableRow
		for i, st := range stats {
			latency, onChain, chainVerifies := st.Latency, 0, 0
			distinct := make(map[float64]bool)
			for slot, v := range st.Finals {
				switch out := v.(type) {
				case dora.Certificate:
					distinct[out.Value] = true
					if slot == 0 {
						onChain, chainVerifies = out.WireSizeEstimate(), len(out.Signers)
					}
				case dora.ChakkaSubmission:
					if slot == 0 {
						onChain = out.WireSize
					}
				}
			}
			outputs := len(distinct)
			ch := run.ChakkaChannel(st.Finals, st.DecidedAt)
			if first, ok := ch.First(); ok {
				// The SMR channel picks one list; every oracle adopts its
				// median, so there is a single decided value, but any of the
				// n submissions could have been first — the protocol admits
				// O(n) possible outputs.
				latency, chainVerifies, outputs = first.At, first.VerifyCost, ch.Len()
			}
			rows = append(rows, TableRow{Name: s.Labels[i], Cells: []string{
				fmt.Sprintf("%.2f", float64(st.TotalBytes)/1e6),
				fmt.Sprintf("%d", onChain),
				fmt.Sprintf("%d", st.SigSigns),
				fmt.Sprintf("%d", st.SigVerifies),
				fmt.Sprintf("%d", chainVerifies),
				fmt.Sprintf("%d", outputs),
				latency.Round(time.Millisecond).String(),
			}})
		}
		return newTable(fmt.Sprintf("table3 — Oracle reporting protocols, measured at n=%d, δ=20$", n),
			[]string{"MB", "on-chain B", "signs", "verifies", "chain-verifies", "outputs", "latency"}, rows), nil
	}
	return s
}
