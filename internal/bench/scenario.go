package bench

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"delphi/internal/core"
	"delphi/internal/netadv"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// InputShape selects how a scenario's honest measurements are distributed
// over the δ range.
type InputShape int

// The available input shapes.
const (
	// ShapePinned is the paper's default workload: uniform over the range
	// with the extremes pinned so δ is exact (OracleInputs).
	ShapePinned InputShape = iota
	// ShapeSkewed concentrates mass near the low end of the range with a
	// thin tail to the pinned high extreme (a stale-feed / outlier regime).
	ShapeSkewed
	// ShapeClustered splits the nodes into two tight clusters at the range
	// extremes — the bimodal regime that motivates multi-level Delphi
	// (Fig. 2 vs Fig. 3).
	ShapeClustered
)

// String implements fmt.Stringer.
func (s InputShape) String() string {
	switch s {
	case ShapePinned:
		return "pinned"
	case ShapeSkewed:
		return "skewed"
	case ShapeClustered:
		return "clustered"
	default:
		return fmt.Sprintf("shape(%d)", int(s))
	}
}

// OracleInputs generates n price measurements centred on center with exact
// range delta: the extremes are pinned so δ is controlled, the rest are
// uniform in between. This matches the paper's "δ = 20$ / 180$" runs.
func OracleInputs(n int, center, delta float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = center + (rng.Float64()-0.5)*delta
	}
	if n >= 2 {
		out[0] = center - delta/2
		out[1] = center + delta/2
	}
	return out
}

// ShapedInputs generates n measurements centred on center with exact range
// delta, distributed per shape. Like OracleInputs, the extremes are pinned
// (slots 0 and 1) so δ is controlled exactly.
func ShapedInputs(shape InputShape, n int, center, delta float64, seed int64) []float64 {
	switch shape {
	case ShapeSkewed:
		rng := rand.New(rand.NewSource(seed))
		lo := center - delta/2
		out := make([]float64, n)
		for i := range out {
			u := rng.Float64()
			out[i] = lo + delta*u*u*u
		}
		if n >= 2 {
			out[0] = lo
			out[1] = lo + delta
		}
		return out
	case ShapeClustered:
		rng := rand.New(rand.NewSource(seed))
		lo, hi := center-delta/2, center+delta/2
		jitter := delta / 20
		out := make([]float64, n)
		for i := range out {
			// Jitter pulls inward only, so the pinned extremes stay extreme.
			u := jitter * rng.Float64()
			if i%2 == 1 {
				out[i] = hi - u
			} else {
				out[i] = lo + u
			}
		}
		if n >= 2 {
			out[0] = lo
			out[1] = hi
		}
		return out
	default:
		return OracleInputs(n, center, delta, seed)
	}
}

// Scenario describes one measured workload: a protocol and system size, an
// environment, an input distribution, and a fault load within the
// protocol's budget, Protocol.Faults(N). New workloads are one struct
// literal — the engine expands a scenario into its trial specs and
// aggregates the results.
type Scenario struct {
	// Name labels the scenario in reports; Matrix fills it automatically.
	Name string
	// Protocol is the protocol under measurement.
	Protocol run.Protocol
	// N is the system size.
	N int
	// Env is the simulated testbed.
	Env sim.Environment
	// Params holds Delphi's parameterisation (also sets the baselines'
	// round counts, as in RunSpec).
	Params core.Params
	// Center and Delta position the honest inputs (δ = Delta).
	Center, Delta float64
	// Shape selects the input distribution over the range.
	Shape InputShape
	// Crashes crash-faults the highest honest slots (NaN inputs: mute from
	// time zero). The lowest slots are spared because the input shapes pin
	// the δ extremes there — crashing them would silently shrink the
	// effective range below Delta and conflate fault load with input
	// placement.
	Crashes int
	// Byzantine replaces the last Byzantine slots with adversaries of kind
	// ByzKind (Delphi only, see RunSpec.Byzantine).
	Byzantine int
	// ByzKind selects the adversarial behaviour.
	ByzKind run.ByzKind
	// Adversary installs a network adversary (adversarial scheduling) for
	// every trial; the zero value is a clean network. Live backends
	// inject the same presets into their transports, scaled to wall time.
	Adversary netadv.Adversary
	// Backend selects the execution backend for every trial; the zero
	// value is the simulator, unless the Engine fills it (see
	// Engine.Backend).
	Backend run.BackendKind
	// SimWorkers spreads every sim-backed trial's window shards over that
	// many workers; 0 is one shard unless the Engine fills it (see
	// RunSpec.SimWorkers).
	SimWorkers int
	// Trials is the per-scenario trial count (default 1). Trial i runs at
	// seed TrialSeed(base, i) with freshly shaped inputs.
	Trials int
	// NoCompression disables Delphi's wire encoding.
	NoCompression bool
}

func (s Scenario) trials() int {
	if s.Trials > 0 {
		return s.Trials
	}
	return 1
}

// Validate checks that the scenario is well-formed and the fault load fits
// the protocol's budget.
func (s Scenario) Validate() error {
	if s.N < 4 {
		return fmt.Errorf("bench: scenario %q: n must be >= 4, got %d", s.Name, s.N)
	}
	f := s.Protocol.Faults(s.N)
	if s.Crashes < 0 || s.Byzantine < 0 {
		return fmt.Errorf("bench: scenario %q: negative fault counts", s.Name)
	}
	if s.Crashes+s.Byzantine > f {
		return fmt.Errorf("bench: scenario %q: %d crashes + %d byzantine exceed fault budget f=%d",
			s.Name, s.Crashes, s.Byzantine, f)
	}
	if s.Delta <= 0 {
		return fmt.Errorf("bench: scenario %q: delta must be positive, got %g", s.Name, s.Delta)
	}
	if err := s.Adversary.Validate(); err != nil {
		return fmt.Errorf("bench: scenario %q: %w", s.Name, err)
	}
	if _, err := lookupBackend(s.Backend); err != nil {
		return fmt.Errorf("bench: scenario %q: %w", s.Name, err)
	}
	return nil
}

// Spec expands trial i of the scenario into a RunSpec. The trial seed is
// derived deterministically from (baseSeed, i), so a scenario's corpus is
// reproducible independent of worker count or batch order.
func (s Scenario) Spec(baseSeed int64, trial int) run.RunSpec {
	seed := run.TrialSeed(baseSeed, trial)
	inputs := ShapedInputs(s.Shape, s.N, s.Center, s.Delta, seed)
	// Crash the highest honest slots (just below any Byzantine slots);
	// Validate bounds Crashes+Byzantine ≤ f < N-2, so the pinned extremes
	// in slots 0 and 1 always survive and δ stays exact.
	for i := 0; i < s.Crashes; i++ {
		inputs[s.N-s.Byzantine-1-i] = math.NaN()
	}
	return run.RunSpec{
		Protocol:      s.Protocol,
		N:             s.N,
		F:             s.Protocol.Faults(s.N),
		Env:           s.Env,
		Seed:          seed,
		Inputs:        inputs,
		Delphi:        s.Params,
		NoCompression: s.NoCompression,
		Byzantine:     s.Byzantine,
		ByzKind:       s.ByzKind,
		Adversary:     s.Adversary,
		Backend:       s.Backend,
		SimWorkers:    s.SimWorkers,
	}
}

// Specs expands every trial of the scenario.
func (s Scenario) Specs(baseSeed int64) []run.RunSpec {
	out := make([]run.RunSpec, s.trials())
	for i := range out {
		out[i] = s.Spec(baseSeed, i)
	}
	return out
}

// Matrix is a scenario grid: a base scenario crossed with per-axis value
// lists. Nil axes keep the base value, so a Matrix degenerates gracefully
// to a single scenario. The paper's sweeps (env × n, fault sweeps) are each
// one or two axes.
type Matrix struct {
	// Base supplies every field the axes don't override.
	Base Scenario
	// Envs, Ns, Shapes, and ByzCounts are the axes.
	Envs      []sim.Environment
	Ns        []int
	Shapes    []InputShape
	ByzCounts []int
}

// Scenarios expands the matrix to the cross-product of its axes, naming
// each cell "env/n=N/δ=D/shape[/crash=C][/byz=B][/adv=A]" (crash and adv
// come from the base).
func (m Matrix) Scenarios() []Scenario {
	envs := m.Envs
	if len(envs) == 0 {
		envs = []sim.Environment{m.Base.Env}
	}
	ns := m.Ns
	if len(ns) == 0 {
		ns = []int{m.Base.N}
	}
	shapes := m.Shapes
	if len(shapes) == 0 {
		shapes = []InputShape{m.Base.Shape}
	}
	byzs := m.ByzCounts
	if len(byzs) == 0 {
		byzs = []int{m.Base.Byzantine}
	}
	var out []Scenario
	for _, env := range envs {
		for _, n := range ns {
			for _, sh := range shapes {
				for _, bz := range byzs {
					s := m.Base
					s.Env = env
					s.N = n
					s.Shape = sh
					s.Byzantine = bz
					s.Name = fmt.Sprintf("%s/n=%d/δ=%g/%s", env.Name, n, s.Delta, sh)
					if s.Crashes > 0 {
						s.Name += fmt.Sprintf("/crash=%d", s.Crashes)
					}
					if bz > 0 {
						s.Name += fmt.Sprintf("/byz=%d", bz)
					}
					if s.Adversary.Kind != netadv.None {
						s.Name += fmt.Sprintf("/adv=%s", s.Adversary)
					}
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// aggregates folds stats, every trial of every cell in cell order, into one
// Aggregate per cell.
func aggregates(cells []Scenario, stats []*run.RunStats, keepSamples bool) []*Aggregate {
	out := make([]*Aggregate, len(cells))
	for i, c := range cells {
		out[i] = NewAggregate(keepSamples)
		for _, st := range stats[:c.trials()] {
			out[i].Observe(st)
		}
		stats = stats[c.trials():]
	}
	return out
}

// scenarioMatrix is the scenario matrix as an experiment: Delphi across
// both testbeds, the three input shapes and a Byzantine spammer or none,
// at n=16 (and 40 at paper scale). Each cell is a struct literal away from
// a new workload.
func scenarioMatrix(scale Scale, seed int64) Plan[string] {
	m := Matrix{
		Base: Scenario{
			Protocol: run.ProtoDelphi,
			// Table I's parameterisation: Δ=256$ keeps every cell subsecond.
			Params: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2},
			Center: 41000,
			Delta:  20,
			Trials: 2,
		},
		Envs:      []sim.Environment{sim.AWS(), sim.CPS()},
		Ns:        []int{16},
		Shapes:    []InputShape{ShapePinned, ShapeSkewed, ShapeClustered},
		ByzCounts: []int{0, 1},
	}
	if scale == Paper {
		m.Ns, m.Base.Trials = []int{16, 40}, 4
	}
	cells := m.Scenarios()
	return scenarioPlan(cells, seed, func(aggs []*Aggregate) (string, error) {
		var b strings.Builder
		fmt.Fprintf(&b, "scenario matrix — Delphi, mean over trials\n  %-36s %10s %10s %10s\n", "cell", "lat(ms)", "MB", "spread")
		for i, agg := range aggs {
			fmt.Fprintf(&b, "  %-36s %10.0f %10.2f %10.3g\n", cells[i].Name, agg.LatencyMS.Mean(), agg.MB.Mean(), agg.Spread.Mean())
		}
		return b.String(), nil
	})
}
