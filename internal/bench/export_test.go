package bench

import (
	"fmt"
	"strings"

	"delphi/internal/run"
)

// Test-only entry points and views.

// ScenarioResult pairs a scenario with its aggregated trial statistics.
type ScenarioResult struct {
	// Scenario is the expanded scenario.
	Scenario Scenario
	// Agg holds the streaming per-trial summary.
	Agg *Aggregate
}

// RunTrials executes trials copies of base, with trial i's seed derived as
// TrialSeed(base.Seed, i), and returns the per-trial results in order.
func (e *Engine) RunTrials(base run.RunSpec, trials int) ([]*run.RunStats, error) {
	specs := make([]run.RunSpec, trials)
	for i := range specs {
		specs[i] = base
		specs[i].Seed = run.TrialSeed(base.Seed, i)
	}
	return e.RunBatch(specs)
}

// RunScenarios executes every trial of every cell as one flat batch
// (maximal pool utilisation), returning per-cell aggregates in cell order.
// keepSamples retains per-trial latency samples in each cell's aggregate.
func (e *Engine) RunScenarios(cells []Scenario, baseSeed int64, keepSamples bool) ([]*ScenarioResult, error) {
	var specs []run.RunSpec
	for _, s := range cells {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		specs = append(specs, s.Specs(baseSeed)...)
	}
	stats, err := e.RunBatch(specs)
	if err != nil {
		return nil, err
	}
	out := make([]*ScenarioResult, len(cells))
	for i, agg := range aggregates(cells, stats, keepSamples) {
		out[i] = &ScenarioResult{Scenario: cells[i], Agg: agg}
	}
	return out, nil
}

// RunMatrix expands the matrix and executes every trial of every cell as
// one flat batch, returning per-cell aggregates in cell order.
func (e *Engine) RunMatrix(m Matrix, baseSeed int64) ([]*ScenarioResult, error) {
	return e.RunScenarios(m.Scenarios(), baseSeed, false)
}

// Fingerprint renders every deterministic field with exact float bits — the
// byte-identity gate for simulator service runs. Wall-clock-only noise
// (none on the simulator) is excluded by construction: the simulator model
// never touches the wall clock.
func (r *ServiceReport) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "backend=%s arrived=%d decided=%d shed=%d failed=%d maxin=%d maxq=%d span=%d stale=%d drops=%d delivered=%d subdropped=%d\n",
		r.Backend, r.Arrived, r.Decided, r.Shed, r.Failed, r.MaxInFlight, r.MaxQueued,
		int64(r.Span), r.StaleFrames, r.TransportDrops, r.DeliveredUpdates, r.SubDropped)
	fmt.Fprintf(&b, "rps=%x\n", r.RoundsPerSec)
	for _, s := range []struct {
		name string
		st   *Stream
	}{
		{"latency", &r.LatencyMS}, {"service", &r.ServiceMS},
		{"queue", &r.QueueMS}, {"staleness", &r.StalenessMS},
	} {
		fmt.Fprintf(&b, "%s n=%d mean=%x min=%x max=%x p50=%x p99=%x\n",
			s.name, s.st.N(), s.st.Mean(), s.st.Min(), s.st.Max(),
			s.st.Percentile(0.50), s.st.Percentile(0.99))
	}
	return b.String()
}
