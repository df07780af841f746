package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"delphi/internal/core"
	"delphi/internal/dora"
	"delphi/internal/node"
	"delphi/internal/run"
	"delphi/internal/sim"
	"delphi/internal/smr"
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

// oracleStats measures one oracle-reporting protocol for Table III: the
// time to the first SMR submission or certificate, node-to-node and
// on-chain bytes, node-side signs and verifies, the SMR channel's
// verifications, and the distinct attested values (Delphi: <= 2).
type oracleStats struct {
	latency                                                       time.Duration
	totalBytes                                                    int64
	onChainBytes, signs, verifies, chainVerifies, distinctOutputs int
}

// table3 is the paper's Table III: Delphi's DORA layer vs the Chakka et al.
// baseline, measured per attested value.
func table3(scale Scale, seed int64) Plan[*Table] {
	return Plan[*Table]{Reduce: func([]*run.RunStats) (*Table, error) {
		n := 16
		if scale == Paper {
			n = 64
		}
		inputs := OracleInputs(n, 41000, 20, seed)
		var rows []TableRow
		for _, row := range []struct {
			name string
			run  func(n int, inputs []float64, seed int64) (*oracleStats, error)
		}{
			{"DORA (Chakka et al.)", runChakka},
			{"Delphi + DORA layer", runDelphiDora},
		} {
			st, err := row.run(n, inputs, seed)
			if err != nil {
				return nil, fmt.Errorf("table3 %s: %w", row.name, err)
			}
			rows = append(rows, TableRow{Name: row.name, Cells: []string{
				fmt.Sprintf("%.2f", float64(st.totalBytes)/1e6),
				fmt.Sprintf("%d", st.onChainBytes),
				fmt.Sprintf("%d", st.signs),
				fmt.Sprintf("%d", st.verifies),
				fmt.Sprintf("%d", st.chainVerifies),
				fmt.Sprintf("%d", st.distinctOutputs),
				st.latency.Round(time.Millisecond).String(),
			}})
		}
		return newTable(fmt.Sprintf("table3 — Oracle reporting protocols, measured at n=%d, δ=20$", n),
			[]string{"MB", "on-chain B", "signs", "verifies", "chain-verifies", "outputs", "latency"}, rows), nil
	}}
}

// runOracles runs one oracle per input on the AWS testbed and returns the
// run with each node's last output, the signature work charged to st.
func runOracles(n int, inputs []float64, seed int64, st *oracleStats, newOracle func(dora.Keyring, float64) (node.Process, error), opts ...sim.Option) (*sim.Result, []any, error) {
	keys := dora.GenKeyrings(n, uint64(seed))
	procs := make([]node.Process, n)
	for i, v := range inputs {
		p, err := newOracle(keys[i], v)
		if err != nil {
			return nil, nil, err
		}
		procs[i] = p
	}
	runner, err := sim.NewRunner(node.Config{N: n, F: run.ProtoDelphi.Faults(n)}, sim.AWS(), seed, procs, opts...)
	if err != nil {
		return nil, nil, err
	}
	res := runner.Run()
	st.totalBytes = res.TotalBytes
	outs := make([]any, n)
	for i, ns := range res.Stats {
		if len(ns.Output) == 0 {
			return nil, nil, fmt.Errorf("oracle %d: no output", i)
		}
		outs[i] = ns.Output[len(ns.Output)-1]
		st.signs += ns.Compute.SigSigns
		st.verifies += ns.Compute.SigVerifies
	}
	return res, outs, nil
}

func runChakka(n int, inputs []float64, seed int64) (*oracleStats, error) {
	st := &oracleStats{}
	res, outs, err := runOracles(n, inputs, seed, st, func(k dora.Keyring, v float64) (node.Process, error) {
		return dora.NewChakka(node.Config{N: n, F: run.ProtoDelphi.Faults(n)}, k, v)
	})
	if err != nil {
		return nil, err
	}
	ch := &smr.Channel{}
	for i, out := range outs {
		sub, ok := out.(dora.ChakkaSubmission)
		if !ok {
			return nil, fmt.Errorf("oracle %d output type %T", i, out)
		}
		ch.Submit(smr.Submission{From: node.ID(i), At: res.Stats[i].OutputAt, Payload: nil, VerifyCost: sub.VerifyCost})
		if i == 0 {
			st.onChainBytes = sub.WireSize
		}
	}
	first, _ := ch.First()
	st.latency = first.At
	st.chainVerifies = first.VerifyCost
	// The SMR channel picks one list; every oracle adopts its median, so
	// there is a single decided value, but any of the n submissions could
	// have been first — the protocol admits O(n) possible outputs.
	st.distinctOutputs = ch.Len()
	return st, nil
}

func runDelphiDora(n int, inputs []float64, seed int64) (*oracleStats, error) {
	st := &oracleStats{}
	cfg := core.Config{
		Config: node.Config{N: n, F: run.ProtoDelphi.Faults(n)},
		Params: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 2000, Eps: 2},
	}
	res, outs, err := runOracles(n, inputs, seed, st, func(k dora.Keyring, v float64) (node.Process, error) {
		return dora.New(cfg, k, v)
	}, sim.WithMaxTime(time.Hour))
	if err != nil {
		return nil, err
	}
	distinct := make(map[float64]bool)
	for i, out := range outs {
		cert, ok := out.(dora.Certificate)
		if !ok {
			return nil, fmt.Errorf("oracle %d output type %T", i, out)
		}
		distinct[cert.Value] = true
		st.latency = max(st.latency, res.Stats[i].OutputAt)
		if i == 0 {
			st.onChainBytes = cert.WireSizeEstimate()
			st.chainVerifies = len(cert.Signers)
		}
	}
	st.distinctOutputs = len(distinct)
	return st, nil
}
