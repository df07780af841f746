package bench

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Experiment is one artefact of the paper's evaluation as data: a name and
// the plan of runs that measures it.
type Experiment struct {
	// Name is the artefact's target name ("table1", "fig6a", ...).
	Name string
	// Plan lists the experiment's runs at a scale and seed.
	Plan func(scale Scale, seed int64) Plan[string]
}

// Plan is what one experiment runs and how it reads the results back into
// a T: its text in the Experiments table, a typed result (a Figure, a
// Table) for the tests that read its fields.
type Plan[T any] struct {
	// Specs are the runs; Labels[i] names Specs[i] in a failed trial's
	// error.
	Specs  []RunSpec
	Labels []string
	// Reduce builds the result from one RunStats per spec, in spec order.
	// The stats may be shared with other plans and must not be modified.
	Reduce func(stats []*RunStats) (T, error)
}

// add appends one run.
func (p *Plan[T]) add(spec RunSpec, label string) {
	p.Specs = append(p.Specs, spec)
	p.Labels = append(p.Labels, label)
}

// Experiments is the table of the evaluation's experiments, in the order
// `experiments -run all` prints them.
func Experiments() []Experiment {
	return []Experiment{
		{"fig4", rendered(fig4, fitText)},
		{"fig5", rendered(fig5, fitText)},
		{"table1", rendered(table1, tableText)},
		{"table2", rendered(table2, tableText)},
		{"table3", rendered(table3, tableText)},
		{"fig6a", rendered(fig6a, figureText)},
		{"fig6b", rendered(fig6b, figureText)},
		{"fig6c", rendered(fig6c, figureText)},
		{"fig7", fig7},
		{"validity", rendered(validity, validityText)},
		{"tail", rendered(latencyTail, func(r *TailReport) string { return r.Text })},
		{"matrix", scenarioMatrix},
		{"adversary", func(scale Scale, seed int64) Plan[string] { return adversarySweep(scale, seed, adversaryAxis()) }},
		{"ablations", ablations},
	}
}

// RunExperiments plans the named experiments and runs the union of their
// specs as one batch, in which specs with one key (RunSpec.key) run once.
// It returns each experiment's text, in names order.
func (e *Engine) RunExperiments(names []string, scale Scale, seed int64) ([]string, error) {
	table := Experiments()
	plans := make([]Plan[string], len(names))
	for i, name := range names {
		j := slices.IndexFunc(table, func(x Experiment) bool { return x.Name == name })
		if j < 0 {
			return nil, fmt.Errorf("bench: unknown experiment %q", name)
		}
		plans[i] = table[j].Plan(scale, seed)
	}
	return e.runPlans(names, plans)
}

// runPlans runs the plans' specs as one de-duplicated batch and reduces
// each plan. The longest runs start first: largest n first and, at one n,
// Abraham et al. then FIN, the slowest protocols to simulate. A failed
// trial's error names the first plan that asked for it and its label.
func (e *Engine) runPlans(names []string, plans []Plan[string]) ([]string, error) {
	type run struct {
		spec       RunSpec
		key, owner string
	}
	var runs []run
	seen := make(map[string]bool)
	for i, p := range plans {
		for j, spec := range p.Specs {
			if k := spec.key(); !seen[k] {
				seen[k] = true
				runs = append(runs, run{spec, k, names[i] + " " + p.Labels[j]})
			}
		}
	}
	slowest := []Protocol{ProtoFIN, ProtoAbraham}
	slices.SortStableFunc(runs, func(a, b run) int {
		return cmp.Or(cmp.Compare(b.spec.N, a.spec.N), cmp.Compare(slices.Index(slowest, b.spec.Protocol), slices.Index(slowest, a.spec.Protocol)))
	})
	specs := make([]RunSpec, len(runs))
	at := make(map[string]int, len(runs))
	for i, r := range runs {
		specs[i], at[r.key] = r.spec, i
	}
	stats, err := e.RunBatch(specs)
	if err != nil {
		var te *TrialError
		if errors.As(err, &te) {
			return nil, fmt.Errorf("%s: %w", runs[te.Index].owner, te.Err)
		}
		return nil, err
	}
	texts := make([]string, len(plans))
	for i, p := range plans {
		own := make([]*RunStats, len(p.Specs))
		for j, spec := range p.Specs {
			own[j] = stats[at[spec.key()]]
		}
		if texts[i], err = p.Reduce(own); err != nil {
			return nil, fmt.Errorf("%s: %w", names[i], err)
		}
	}
	return texts, nil
}

// rendered plans an experiment from a typed plan and its text.
func rendered[T any](plan func(Scale, int64) Plan[T], text func(T) string) func(Scale, int64) Plan[string] {
	return func(scale Scale, seed int64) Plan[string] {
		p := plan(scale, seed)
		return Plan[string]{Specs: p.Specs, Labels: p.Labels, Reduce: func(stats []*RunStats) (string, error) {
			r, err := p.Reduce(stats)
			if err != nil {
				return "", err
			}
			return text(r), nil
		}}
	}
}

// concat joins plans into one whose text is theirs, in order, with sep
// between each two.
func concat(sep string, parts ...Plan[string]) Plan[string] {
	var p Plan[string]
	for _, q := range parts {
		p.Specs = append(p.Specs, q.Specs...)
		p.Labels = append(p.Labels, q.Labels...)
	}
	p.Reduce = func(stats []*RunStats) (string, error) {
		var b strings.Builder
		for i, q := range parts {
			text, err := q.Reduce(stats[:len(q.Specs)])
			if err != nil {
				return "", err
			}
			if i > 0 {
				b.WriteString(sep)
			}
			b.WriteString(text)
			stats = stats[len(q.Specs):]
		}
		return b.String(), nil
	}
	return p
}

// scenarioPlan plans every trial of every cell; reduce reads one Aggregate
// per cell, in cell order.
func scenarioPlan(cells []Scenario, seed int64, reduce func([]*Aggregate) (string, error)) Plan[string] {
	var p Plan[string]
	for _, c := range cells {
		for i, spec := range c.Specs(seed) {
			p.add(spec, fmt.Sprintf("%s trial %d", c.Name, i))
		}
	}
	p.Reduce = func(stats []*RunStats) (string, error) { return reduce(aggregates(cells, stats, false)) }
	return p
}

func fitText(r *FitReport) string { return r.Text }
func tableText(t *Table) string   { return t.Text }
func figureText(f *Figure) string { return f.Text }
func validityText(reps []*ValidityReport) string {
	text := "validity (§VI-E) — distance from honest mean\n"
	for _, r := range reps {
		text += fmt.Sprintf("%-8s mean δ=%.3f  |Delphi−mean|=%.3f  |FIN−mean|=%.3f  ratio=%.2f\n",
			r.App, r.DeltaMean, r.DelphiErr, r.BaselineErr, r.DelphiErr/r.BaselineErr)
	}
	return text
}
