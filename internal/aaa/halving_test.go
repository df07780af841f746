package aaa_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"delphi/internal/aaa"
	"delphi/internal/core"
	"delphi/internal/run"
)

// TestRoundsMustHalve: StatsFromOutputs checks both baselines round by round.
// Hand-built results whose honest range, 16 at the inputs, goes 8 and then 5
// fail at round 2, naming the two nodes that span it, though the end state is
// inside ε; ranges that halve exactly, up to a rounding ulp, pass.
func TestRoundsMustHalve(t *testing.T) {
	inputs := []float64{100, 116, 108, math.NaN(), 104, 110}
	rounds := [][]float64{ // per slot: the state after rounds 1, 2, 3
		{104, 107, 108},
		{112, 112, 109},
		{108, 110, 108.5},
		nil, // crashed
		{106, 108, 108.25},
		{110, 109, 108.75},
	}
	halving := [][]float64{
		{104, 106, 107},
		{112, 110, 108},
		{108, 108, 107.5},
		nil,
		{106, 108, 107.25},
		{110, 109, 107.75},
	}
	halving[1][2] = math.Nextafter(109, 200) // a rounding ulp over half of round 2's 4
	for _, proto := range []run.Protocol{run.ProtoDolev, run.ProtoAbraham} {
		for _, c := range []struct {
			states [][]float64
			want   string
		}{
			{rounds, "round 2 did not halve the honest range: nodes 0 and 1 hold 107 and 112"},
			{halving, ""},
		} {
			spec := run.RunSpec{Protocol: proto, N: len(inputs), F: 1, Inputs: inputs, Delphi: core.Params{Eps: 2}}
			finals, at := make([]any, spec.N), make([]time.Duration, spec.N)
			for i, v := range c.states {
				if v == nil {
					continue
				}
				if proto == run.ProtoDolev {
					finals[i] = aaa.DolevResultOf(v...)
				} else {
					finals[i] = aaa.AbrahamResultOf(v...)
				}
			}
			_, err := spec.StatsFromOutputs(finals, at)
			switch {
			case c.want == "" && err != nil:
				t.Errorf("%s: halving rounds gave %v", proto, err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Errorf("%s: got %v, want an error with %q", proto, err, c.want)
			}
		}
	}
}
