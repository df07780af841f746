package core

import (
	"fmt"
	"math"
	"slices"

	"delphi/internal/binaa"
	"delphi/internal/node"
	"delphi/internal/obs"
)

// Config combines the system configuration with Delphi's parameters.
type Config struct {
	// Config supplies n and t.
	node.Config
	// Params are the protocol parameters.
	Params Params
	// DisableCompression turns off the §II-C wire encoding (ablation).
	DisableCompression bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	return c.Params.Validate()
}

// LevelStat reports the per-level aggregation state of Algorithm 2
// (lines 14–23) for one node.
type LevelStat struct {
	// Level is l.
	Level int
	// Value is V_l, the level's weighted-average representative value.
	Value float64
	// Weight is w_l, the maximum checkpoint weight at the level.
	Weight float64
	// CrossWeight is w'_l, the cross-level differentiated weight.
	CrossWeight float64
	// ActiveCheckpoints counts checkpoints with non-zero weight.
	ActiveCheckpoints int
}

// Result is the output of one Delphi node.
type Result struct {
	// Output is o_i, the node's agreed value.
	Output float64
	// Input is the node's original input v_i.
	Input float64
	// Levels holds the per-level aggregation diagnostics.
	Levels []LevelStat
	// Rounds is the number of BinAA rounds run (r_M).
	Rounds int
}

// Delphi is the protocol state machine for one node. It implements
// node.Process and can be driven by the simulator or the live runtime.
type Delphi struct {
	cfg     Config
	input   float64
	env     node.Env
	track   *obs.Track
	startAt int64
	eng     *binaa.Engine
}

var _ node.Process = (*Delphi)(nil)

// New creates a Delphi node with input v.
func New(cfg Config, input float64) (*Delphi, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !(input >= cfg.Params.S && input <= cfg.Params.E) {
		return nil, fmt.Errorf("core: input %g outside [%g, %g]", input, cfg.Params.S, cfg.Params.E)
	}
	d := &Delphi{cfg: cfg, input: input}
	eng, err := binaa.NewEngine(
		binaa.Config{
			Config:             cfg.Config,
			Rounds:             cfg.Params.Rounds(cfg.N),
			DisableCompression: cfg.DisableCompression,
		},
		d.binaaInputs(),
		d.finish,
	)
	if err != nil {
		return nil, err
	}
	d.eng = eng
	return d, nil
}

// binaaInputs builds the per-checkpoint binary inputs (Algorithm 2 lines
// 9–11): 1 for the two closest checkpoints at every level, 0 elsewhere.
func (d *Delphi) binaaInputs() map[binaa.IID]float64 {
	p := d.cfg.Params
	in := make(map[binaa.IID]float64, 2*(p.Levels()+1))
	for l := 0; l <= p.Levels(); l++ {
		for _, k := range p.InputCheckpoints(l, d.input) {
			in[binaa.IID{Level: uint8(l), K: k}] = 1
		}
	}
	return in
}

// Init implements node.Process.
func (d *Delphi) Init(env node.Env) {
	d.env = env
	d.track = node.TrackOf(env)
	d.startAt = d.track.Now()
	d.eng.Start(env)
}

// Deliver implements node.Process.
func (d *Delphi) Deliver(from node.ID, m node.Message) {
	switch msg := m.(type) {
	case *binaa.Echo1:
		d.eng.HandleEcho1(from, msg)
	case *binaa.Echo2:
		d.eng.HandleEcho2(from, msg)
	case *binaa.Echo1C:
		d.eng.HandleEcho1C(from, msg)
	case *binaa.Echo2C:
		d.eng.HandleEcho2C(from, msg)
	}
}

// finish runs the aggregation phase once all BinAA instances terminate.
func (d *Delphi) finish(weights map[binaa.IID]float64) {
	res := Aggregate(d.cfg, d.input, weights)
	res.Rounds = d.cfg.Params.Rounds(d.cfg.N)
	// The whole-protocol span: Init → aggregation complete (the per-round
	// breakdown inside it comes from the BinAA engine's "binaa.round" spans).
	d.track.Span("delphi.decide", d.startAt, int64(res.Rounds), 0)
	d.env.Output(res)
	d.env.Halt()
}

// Aggregate computes Algorithm 2's aggregation phase (lines 13–24) from the
// agreed checkpoint weights. Exposed for direct unit testing.
func Aggregate(cfg Config, input float64, weights map[binaa.IID]float64) Result {
	p := cfg.Params
	lm := p.Levels()
	epsPrime := p.EpsPrime(cfg.N)

	// Per-level aggregation: V_l = Σ w·µ / Σ w, w_l = max w; the fallback
	// (V_l, w_l) = (v_i, ε') applies when the level has no positive weight.
	levels := make([]LevelStat, lm+1)
	perLevel := make(map[int]map[int32]float64, lm+1)
	for id, w := range weights {
		if w <= 0 {
			continue
		}
		l := int(id.Level)
		if l > lm {
			continue // junk from Byzantine senders
		}
		m := perLevel[l]
		if m == nil {
			m = make(map[int32]float64)
			perLevel[l] = m
		}
		m[id.K] = w
	}
	for l := 0; l <= lm; l++ {
		st := LevelStat{Level: l}
		cps := perLevel[l]
		if len(cps) > 0 {
			// Sum in sorted checkpoint order: float addition is not
			// commutative in the low bits, so map-order summation would let
			// the output vary by ulps between reruns of the same seed.
			ks := make([]int32, 0, len(cps))
			for k := range cps {
				ks = append(ks, k)
			}
			slices.Sort(ks)
			var num, den, maxW float64
			for _, k := range ks {
				w := cps[k]
				num += w * p.Checkpoint(l, k)
				den += w
				if w > maxW {
					maxW = w
				}
			}
			st.Value = num / den
			st.Weight = maxW
			st.ActiveCheckpoints = len(cps)
		} else {
			st.Value = input
			st.Weight = epsPrime
		}
		levels[l] = st
	}

	// Cross-level aggregation: w'_0 = w_0², w'_l = w_l·|w_l − w_{l-1}|.
	levels[0].CrossWeight = levels[0].Weight * levels[0].Weight
	for l := 1; l <= lm; l++ {
		levels[l].CrossWeight = levels[l].Weight * math.Abs(levels[l].Weight-levels[l-1].Weight)
	}
	var num, den float64
	for l := 0; l <= lm; l++ {
		num += levels[l].CrossWeight * levels[l].Value
		den += levels[l].CrossWeight
	}
	out := input
	if den > 0 {
		out = num / den
	}
	return Result{Output: out, Input: input, Levels: levels}
}
