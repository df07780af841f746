package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"delphi/internal/core"
	"delphi/internal/netadv"
	"delphi/internal/sim"
)

// CrossCell is one cross-backend validation workload: a (protocol,
// adversary) spec executed on every backend under test, with the safety
// checks applied to each execution and across executions.
type CrossCell struct {
	// Protocol and Adversary name the workload.
	Protocol  Protocol
	Adversary netadv.Adversary
	// N and F record the sizing; Center and Delta position the honest
	// inputs.
	N, F          int
	Center, Delta float64
	// Stats holds the per-backend results, indexed like the report's
	// Kinds.
	Stats []*RunStats
	// MeanGap is the largest |mean(outputs)| difference between any two
	// backends — zero means every backend decided the same point.
	MeanGap float64
	// Failures lists every violated check; empty means the cell passed.
	Failures []string
}

// OK reports whether every check passed.
func (c *CrossCell) OK() bool { return len(c.Failures) == 0 }

// CrossReport is the cross-backend validator's result.
type CrossReport struct {
	// Kinds are the backends under test.
	Kinds []BackendKind
	// Cells holds every workload's results and verdicts.
	Cells []*CrossCell
	// Text is the rendered verdict grid.
	Text string
}

// OK reports whether every cell passed.
func (r *CrossReport) OK() bool {
	for _, c := range r.Cells {
		if !c.OK() {
			return false
		}
	}
	return true
}

// crossAdversaries is the validator's adversary axis: a clean network plus
// two presets injected into every backend's transport, at reduced severity
// so live runs stay fast (the delays are real wall-time there).
func crossAdversaries() []netadv.Adversary {
	return []netadv.Adversary{
		{},
		{Kind: netadv.SlowF, Severity: 0.25},
		{Kind: netadv.JitterStorm, Severity: 0.25},
	}
}

// ValidateCrossBackend runs every protocol (clean and under network
// adversaries) on every listed backend from identical RunSpecs and checks
// that the protocol guarantees hold everywhere:
//
//   - agreement: every backend's honest outputs lie within ε of each other;
//   - validity: every output lies inside the honest-input hull (with the
//     protocols' quantisation slack);
//   - cross-backend output agreement: all backends decide inside the same
//     δ-wide validity window, so no backend's mean is further than δ from
//     another's.
//
// Wall-clock metrics are deliberately not compared — they are real time and
// differ across backends by construction; only protocol outputs carry
// cross-backend guarantees. All (cell × backend × trial) runs form one
// engine batch.
func (e *Engine) ValidateCrossBackend(kinds []BackendKind, scale Scale, seed int64) (*CrossReport, error) {
	if len(kinds) < 2 {
		return nil, fmt.Errorf("bench: cross-backend validation needs >= 2 backends, got %d", len(kinds))
	}
	for _, k := range kinds {
		if !BackendRegistered(k) {
			return nil, errUnregistered(k)
		}
	}
	trials := 1
	n := 8
	if scale != Quick {
		trials = 3
		n = 16
	}
	params := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2}
	const center, delta = 41000.0, 20.0

	rep := &CrossReport{Kinds: kinds}
	var specs []RunSpec
	for _, proto := range []Protocol{ProtoDelphi, ProtoFIN, ProtoAbraham, ProtoDolev} {
		f := proto.Faults(n)
		for _, adv := range crossAdversaries() {
			rep.Cells = append(rep.Cells, &CrossCell{
				Protocol: proto, Adversary: adv, N: n, F: f,
				Center: center, Delta: delta,
			})
			for _, kind := range kinds {
				for tr := 0; tr < trials; tr++ {
					// Identical seeds per backend: every backend executes
					// the same inputs and adversarial schedule parameters.
					ts := TrialSeed(seed, tr)
					specs = append(specs, RunSpec{
						Protocol:  proto,
						N:         n,
						F:         f,
						Env:       sim.AWS(),
						Seed:      ts,
						Inputs:    OracleInputs(n, center, delta, ts),
						Delphi:    params,
						Adversary: adv,
						Backend:   kind,
					})
				}
			}
		}
	}
	stats, err := e.RunBatch(specs)
	if err != nil {
		return nil, fmt.Errorf("bench: cross-backend validation: %w", err)
	}
	idx := 0
	for _, cell := range rep.Cells {
		perKind := make([][]*RunStats, len(kinds))
		for ki := range kinds {
			perKind[ki] = stats[idx : idx+trials]
			for _, st := range perKind[ki] {
				cell.check(kinds[ki], st, params)
			}
			idx += trials
		}
		// The report keeps each backend's first trial; the cross-backend
		// gap compares trial t on backend a against the same trial t —
		// identical inputs — on backend b.
		cell.Stats = make([]*RunStats, len(kinds))
		for ki := range kinds {
			cell.Stats[ki] = perKind[ki][0]
		}
		for a := range kinds {
			for b := a + 1; b < len(kinds); b++ {
				for tr := 0; tr < trials; tr++ {
					gap := math.Abs(mean(perKind[a][tr].Outputs) - mean(perKind[b][tr].Outputs))
					if gap > cell.MeanGap {
						cell.MeanGap = gap
					}
					if gap > delta+params.Eps {
						cell.Failures = append(cell.Failures, fmt.Sprintf(
							"backends %s and %s decided %.3g apart (> δ=%g): no common validity window",
							kinds[a], kinds[b], gap, delta))
					}
				}
			}
		}
	}
	rep.render()
	return rep, nil
}

// check applies the single-execution safety predicates.
func (c *CrossCell) check(kind BackendKind, st *RunStats, params core.Params) {
	const ulps = 1e-9
	if len(st.Outputs) == 0 {
		c.Failures = append(c.Failures, fmt.Sprintf("%s: no honest outputs", kind))
		return
	}
	if st.Spread > params.Eps+ulps {
		c.Failures = append(c.Failures, fmt.Sprintf(
			"%s: agreement violated: spread %g > ε=%g", kind, st.Spread, params.Eps))
	}
	// Validity: outputs inside the honest-input hull, relaxed by the
	// checkpoint quantisation (ρ0) plus the agreement ε that protocols may
	// overshoot by.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range st.Outputs {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	slack := params.Rho0 + params.Eps
	hullLo, hullHi := c.Center-c.Delta/2, c.Center+c.Delta/2
	if lo < hullLo-slack || hi > hullHi+slack {
		c.Failures = append(c.Failures, fmt.Sprintf(
			"%s: validity violated: outputs [%g, %g] outside hull [%g, %g]±%g",
			kind, lo, hi, hullLo, hullHi, slack))
	}
}

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// render formats the verdict grid.
func (r *CrossReport) render() {
	var b strings.Builder
	b.WriteString("cross-backend validation — identical RunSpecs on every backend\n")
	fmt.Fprintf(&b, "  %-10s %-14s", "protocol", "adversary")
	for _, k := range r.Kinds {
		fmt.Fprintf(&b, " %18s", fmt.Sprintf("%s lat/spread", k))
	}
	fmt.Fprintf(&b, " %9s %s\n", "mean-gap", "verdict")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-10s %-14s", c.Protocol, c.Adversary)
		for ki := range r.Kinds {
			st := c.Stats[ki]
			if st == nil {
				fmt.Fprintf(&b, " %18s", "-")
				continue
			}
			lat := st.Latency
			if st.Wall > 0 {
				lat = st.Wall
			}
			fmt.Fprintf(&b, " %18s", fmt.Sprintf("%s/%.2g", lat.Round(time.Millisecond), st.Spread))
		}
		verdict := "ok"
		if !c.OK() {
			verdict = "FAIL: " + strings.Join(c.Failures, "; ")
		}
		fmt.Fprintf(&b, " %9.3g %s\n", c.MeanGap, verdict)
	}
	r.Text = b.String()
}
