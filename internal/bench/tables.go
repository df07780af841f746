package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"delphi/internal/core"
	"delphi/internal/dora"
	"delphi/internal/node"
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
	// Name identifies the table ("table1", ...).
	Name string
	// Title is the caption lead.
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the measured rows.
	Rows []TableRow
	// Text is the rendered table.
	Text string
}

func renderTable(t *Table) {
	widths := make([]int, len(t.Header)+1)
	widths[0] = len("protocol")
	for _, r := range t.Rows {
		if len(r.Name) > widths[0] {
			widths[0] = len(r.Name)
		}
	}
	for i, h := range t.Header {
		widths[i+1] = len(h)
		for _, r := range t.Rows {
			if i < len(r.Cells) && len(r.Cells[i]) > widths[i+1] {
				widths[i+1] = len(r.Cells[i])
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.Name, t.Title)
	fmt.Fprintf(&b, "%-*s", widths[0]+2, "protocol")
	for i, h := range t.Header {
		fmt.Fprintf(&b, "%*s", widths[i+1]+2, h)
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", widths[0]+2, r.Name)
		for i, c := range r.Cells {
			fmt.Fprintf(&b, "%*s", widths[i+1]+2, c)
		}
		b.WriteString("\n")
	}
	t.Text = b.String()
}

// Table1 is the measured companion of the paper's Table I: the four convex
// BA protocols on identical inputs, reporting bits on the wire, latency,
// crypto operations, agreement distance, and validity interval slack.
func (e *Engine) Table1(scale Scale, seed int64) (*Table, error) {
	n := 16
	if scale == Paper {
		n = 64
	}
	f := faults(n)
	fDolev := (n - 1) / 5
	p := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2}
	delta := 20.0
	inputs := OracleInputs(n, 41000, delta, seed)
	m, M := 41000-delta/2, 41000+delta/2

	tbl := &Table{
		Name:   "table1",
		Title:  fmt.Sprintf("Asynchronous convex BA protocols, measured at n=%d, δ=%.0f$", n, delta),
		Header: []string{"MB", "latency", "pairings", "spread", "validity-slack"},
	}
	names := []string{"FIN (ACS)", "Abraham et al.", "Dolev et al. (5t+1)", "Delphi"}
	specs := []RunSpec{
		{Protocol: ProtoFIN, N: n, F: f, Env: sim.AWS(), Seed: seed, Inputs: inputs, Delphi: p},
		{Protocol: ProtoAbraham, N: n, F: f, Env: sim.AWS(), Seed: seed, Inputs: inputs, Delphi: p},
		{Protocol: ProtoDolev, N: n, F: fDolev, Env: sim.AWS(), Seed: seed, Inputs: inputs, Delphi: p},
		{Protocol: ProtoDelphi, N: n, F: f, Env: sim.AWS(), Seed: seed, Inputs: inputs, Delphi: p},
	}
	stats, err := e.labelledBatch("table1", specs, names)
	if err != nil {
		return nil, err
	}
	for i, st := range stats {
		slack := 0.0
		for _, o := range st.Outputs {
			if o < m {
				slack = math.Max(slack, m-o)
			}
			if o > M {
				slack = math.Max(slack, o-M)
			}
		}
		tbl.Rows = append(tbl.Rows, TableRow{Name: names[i], Cells: []string{
			fmt.Sprintf("%.2f", float64(st.TotalBytes)/1e6),
			st.Latency.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", st.Pairings),
			fmt.Sprintf("%.3g", st.Spread),
			fmt.Sprintf("%.3g", slack),
		}})
	}
	renderTable(tbl)
	return tbl, nil
}

// Table2 is the paper's Table II: Delphi's communication and rounds under
// the three (Δ, δ) conditions.
func (e *Engine) Table2(scale Scale, seed int64) (*Table, error) {
	n := 16
	if scale == Paper {
		n = 64
	}
	f := faults(n)
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
	tbl := &Table{
		Name:   "table2",
		Title:  fmt.Sprintf("Delphi under input conditions, n=%d", n),
		Header: []string{"MB", "rounds", "latency", "spread"},
	}
	var specs []RunSpec
	var labels []string
	params := make([]core.Params, len(conds))
	for i, c := range conds {
		params[i] = core.Params{S: 0, E: 100000, Rho0: eps, Delta: c.delta, Eps: eps}
		specs = append(specs, RunSpec{
			Protocol: ProtoDelphi, N: n, F: f, Env: sim.AWS(), Seed: seed,
			Inputs: OracleInputs(n, 41000, c.rng, seed), Delphi: params[i],
		})
		labels = append(labels, c.name)
	}
	stats, err := e.labelledBatch("table2", specs, labels)
	if err != nil {
		return nil, err
	}
	for i, st := range stats {
		tbl.Rows = append(tbl.Rows, TableRow{Name: conds[i].name, Cells: []string{
			fmt.Sprintf("%.2f", float64(st.TotalBytes)/1e6),
			fmt.Sprintf("%d", params[i].Rounds(n)),
			st.Latency.Round(time.Millisecond).String(),
			fmt.Sprintf("%.3g", st.Spread),
		}})
	}
	renderTable(tbl)
	return tbl, nil
}

// OracleStats measures one oracle-reporting protocol for Table III.
type OracleStats struct {
	// Latency is the time to the first SMR submission / certificate.
	Latency time.Duration
	// TotalBytes is the node-to-node traffic.
	TotalBytes int64
	// OnChainBytes is the size of the submitted artefact.
	OnChainBytes int
	// Signs and Verifies count node-side signature operations.
	Signs, Verifies int
	// ChainVerifies counts the SMR channel's verifications.
	ChainVerifies int
	// DistinctOutputs counts distinct attested values (Delphi: <= 2).
	DistinctOutputs int
	// Value is the decided value.
	Value float64
}

// Table3 is the paper's Table III: Delphi's DORA layer vs the Chakka et al.
// baseline, measured per attested value.
func Table3(scale Scale, seed int64) (*Table, error) {
	n := 16
	if scale == Paper {
		n = 64
	}
	f := faults(n)
	inputs := OracleInputs(n, 41000, 20, seed)

	chakka, err := runChakka(n, f, inputs, seed)
	if err != nil {
		return nil, fmt.Errorf("table3 chakka: %w", err)
	}
	delphiStats, err := runDelphiDora(n, f, inputs, seed)
	if err != nil {
		return nil, fmt.Errorf("table3 delphi: %w", err)
	}

	tbl := &Table{
		Name:   "table3",
		Title:  fmt.Sprintf("Oracle reporting protocols, measured at n=%d, δ=20$", n),
		Header: []string{"MB", "on-chain B", "signs", "verifies", "chain-verifies", "outputs", "latency"},
	}
	for _, row := range []struct {
		name string
		s    *OracleStats
	}{
		{"DORA (Chakka et al.)", chakka},
		{"Delphi + DORA layer", delphiStats},
	} {
		tbl.Rows = append(tbl.Rows, TableRow{Name: row.name, Cells: []string{
			fmt.Sprintf("%.2f", float64(row.s.TotalBytes)/1e6),
			fmt.Sprintf("%d", row.s.OnChainBytes),
			fmt.Sprintf("%d", row.s.Signs),
			fmt.Sprintf("%d", row.s.Verifies),
			fmt.Sprintf("%d", row.s.ChainVerifies),
			fmt.Sprintf("%d", row.s.DistinctOutputs),
			row.s.Latency.Round(time.Millisecond).String(),
		}})
	}
	renderTable(tbl)
	return tbl, nil
}

func runChakka(n, f int, inputs []float64, seed int64) (*OracleStats, error) {
	cfg := node.Config{N: n, F: f}
	keys := dora.GenKeyrings(n, uint64(seed))
	procs := make([]node.Process, n)
	for i, v := range inputs {
		p, err := dora.NewChakka(cfg, keys[i], v)
		if err != nil {
			return nil, err
		}
		procs[i] = p
	}
	runner, err := sim.NewRunner(cfg, sim.AWS(), seed, procs)
	if err != nil {
		return nil, err
	}
	res := runner.Run()
	ch := &smr.Channel{}
	st := &OracleStats{TotalBytes: res.TotalBytes}
	for i := 0; i < n; i++ {
		ns := res.Stats[i]
		if len(ns.Output) == 0 {
			return nil, fmt.Errorf("oracle %d: no submission", i)
		}
		sub, ok := ns.Output[len(ns.Output)-1].(dora.ChakkaSubmission)
		if !ok {
			return nil, fmt.Errorf("oracle %d output type %T", i, ns.Output[0])
		}
		ch.Submit(smr.Submission{From: node.ID(i), At: ns.OutputAt, Payload: nil, VerifyCost: sub.VerifyCost})
		st.Signs += ns.Compute.SigSigns
		st.Verifies += ns.Compute.SigVerifies
		if i == 0 {
			st.OnChainBytes = sub.WireSize
			st.Value = sub.Median()
		}
	}
	first, _ := ch.First()
	st.Latency = first.At
	st.ChainVerifies = first.VerifyCost
	// The SMR channel picks one list; every oracle adopts its median, so
	// there is a single decided value, but any of the n submissions could
	// have been first — the protocol admits O(n) possible outputs.
	st.DistinctOutputs = ch.Len()
	return st, nil
}

func runDelphiDora(n, f int, inputs []float64, seed int64) (*OracleStats, error) {
	cfg := core.Config{
		Config: node.Config{N: n, F: f},
		Params: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 2000, Eps: 2},
	}
	keys := dora.GenKeyrings(n, uint64(seed))
	procs := make([]node.Process, n)
	for i, v := range inputs {
		p, err := dora.New(cfg, keys[i], v)
		if err != nil {
			return nil, err
		}
		procs[i] = p
	}
	runner, err := sim.NewRunner(cfg.Config, sim.AWS(), seed, procs, sim.WithMaxTime(time.Hour))
	if err != nil {
		return nil, err
	}
	res := runner.Run()
	st := &OracleStats{TotalBytes: res.TotalBytes}
	distinct := make(map[float64]bool)
	for i := 0; i < n; i++ {
		ns := res.Stats[i]
		if len(ns.Output) == 0 {
			return nil, fmt.Errorf("oracle %d: no certificate", i)
		}
		cert, ok := ns.Output[len(ns.Output)-1].(dora.Certificate)
		if !ok {
			return nil, fmt.Errorf("oracle %d output type %T", i, ns.Output[0])
		}
		distinct[cert.Value] = true
		st.Signs += ns.Compute.SigSigns
		st.Verifies += ns.Compute.SigVerifies
		if ns.OutputAt > st.Latency {
			st.Latency = ns.OutputAt
		}
		if i == 0 {
			st.OnChainBytes = cert.WireSizeEstimate()
			st.Value = cert.Value
			st.ChainVerifies = len(cert.Signers)
		}
	}
	st.DistinctOutputs = len(distinct)
	return st, nil
}
