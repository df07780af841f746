package aaa

import (
	"fmt"
	"math"
	"sort"

	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/rbc"
	"delphi/internal/wire"
)

// AbrahamConfig parameterises the Abraham et al. baseline.
type AbrahamConfig struct {
	// Config supplies n and t (n >= 3t+1).
	node.Config
	// Rounds is the number of halving rounds, ceil(log2(δ0/ε)) for target
	// agreement ε from initial range δ0 (the harness derives it from Δ/ε
	// for parity with Delphi's parameterisation).
	Rounds int
}

// Validate checks the configuration.
func (c AbrahamConfig) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if c.Rounds < 1 {
		return fmt.Errorf("aaa: rounds must be >= 1, got %d", c.Rounds)
	}
	return nil
}

// AbrahamResult is the baseline's output.
type AbrahamResult struct {
	// Output is the node's final state value.
	Output float64
	// Rounds is the number of rounds run.
	Rounds int
	rounds []*roundData // each round's state, for RoundValue
}

// RoundValue returns the node's state after round r, for r in [1, Rounds];
// ok is false for any other r, or if the result carries no rounds.
func (x AbrahamResult) RoundValue(r int) (v float64, ok bool) {
	if r < 1 || r >= len(x.rounds) {
		return 0, false
	}
	return x.rounds[r].value, true
}

// roundData tracks one round's deliveries and witness reports, by node:
// values[i] is i's delivered value once delivered has i, and reports[i] the
// set i reported (nil until i reports), carved from spare's words i·w on;
// and value, the state the node took from them.
type roundData struct {
	values           []float64
	reports          []node.Set
	delivered, spare node.Set
	nDelivered       int
	sentReport       bool
	value            float64
}

// Abraham runs one node of Abraham et al.'s approximate agreement. Each
// round it reliably broadcasts its state, reports the set of delivered
// values, waits for n-t witnesses (peers whose reported sets it has fully
// delivered), and updates its state to the midpoint of the t-trimmed
// delivered values.
type Abraham struct {
	cfg     AbrahamConfig
	env     node.Env
	track   *obs.Track
	roundAt int64
	rbcEng  *rbc.Engine
	value   float64
	round   int
	rounds  []*roundData // by round, 1 to Rounds
	done    bool
}

var _ node.Process = (*Abraham)(nil)

// NewAbraham creates a node with the given input.
func NewAbraham(cfg AbrahamConfig, input float64) (*Abraham, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if math.IsNaN(input) || math.IsInf(input, 0) {
		return nil, fmt.Errorf("aaa: input must be finite, got %g", input)
	}
	return &Abraham{cfg: cfg, value: input, rounds: make([]*roundData, cfg.Rounds+1)}, nil
}

// Init implements node.Process.
func (a *Abraham) Init(env node.Env) {
	a.env = env
	a.track = node.TrackOf(env)
	a.roundAt = a.track.Now()
	a.rbcEng = rbc.NewEngine(a.cfg.Config, env, a.cfg.Rounds+1, a.onDeliver)
	a.round = 1
	a.broadcastValue()
}

func (a *Abraham) rd(r int) *roundData {
	if a.rounds[r] == nil {
		n, w := a.cfg.N, node.SetWords(a.cfg.N)
		s := make(node.Set, (n+1)*w) // one allocation for the round's sets
		a.rounds[r] = &roundData{values: make([]float64, n), reports: make([]node.Set, n), delivered: s[:w:w], spare: s[w:]}
	}
	return a.rounds[r]
}

func (a *Abraham) broadcastValue() {
	var w wire.Writer
	w.F64(a.value)
	a.rbcEng.Broadcast(uint32(a.round), w)
}

// Deliver implements node.Process.
func (a *Abraham) Deliver(from node.ID, m node.Message) {
	if a.done {
		// Keep serving RBC echoes/readies so laggards can finish.
		a.rbcEng.Handle(from, m)
		return
	}
	if a.rbcEng.Handle(from, m) {
		return
	}
	if rep, ok := m.(*Report); ok {
		r := int(rep.Round)
		if r < 1 || r > a.cfg.Rounds || uint(from) >= uint(a.cfg.N) {
			return
		}
		// A report naming a node outside [0, n) could never witness.
		for _, id := range rep.Have {
			if uint(id) >= uint(a.cfg.N) {
				return
			}
		}
		if d, w := a.rd(r), node.SetWords(a.cfg.N); d.reports[from] == nil {
			set := d.spare[int(from)*w : int(from+1)*w : int(from+1)*w]
			for _, id := range rep.Have {
				set.Add(id)
			}
			d.reports[from] = set
		}
		a.progress()
	}
}

func (a *Abraham) onDeliver(k rbc.Key, payload []byte) {
	r := int(k.Tag)
	if r < 1 || r > a.cfg.Rounds || a.done {
		return
	}
	rd := wire.NewReader(payload)
	v := rd.F64()
	if rd.Err() != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	d := a.rd(r)
	if !d.delivered.Add(k.Initiator) {
		return
	}
	d.values[k.Initiator] = v
	d.nDelivered++
	a.progress()
}

// progress advances the round state machine as far as possible.
func (a *Abraham) progress() {
	for !a.done {
		d := a.rd(a.round)
		// Report the delivered set once it reaches n-t.
		if !d.sentReport && d.nDelivered >= a.cfg.Quorum() {
			d.sentReport = true
			have := wire.Make[node.ID](wire.SentArena(a.env), d.nDelivered)[:0]
			for id := node.ID(0); int(id) < a.cfg.N; id++ {
				if d.delivered.Has(id) {
					have = append(have, id)
				}
			}
			a.env.Broadcast(wire.New(wire.SentArena(a.env), Report{Round: uint16(a.round), Have: have}))
		}
		if !d.sentReport {
			return
		}
		// Count witnesses: peers whose reported sets we fully delivered.
		witnesses := 0
		for _, have := range d.reports {
			if have != nil && have.SubsetOf(d.delivered) {
				witnesses++
			}
		}
		if witnesses < a.cfg.Quorum() {
			return
		}
		// Update: midpoint of the t-trimmed delivered multiset.
		vals := make([]float64, 0, d.nDelivered)
		for id := node.ID(0); int(id) < a.cfg.N; id++ {
			if d.delivered.Has(id) {
				vals = append(vals, d.values[id])
			}
		}
		sort.Float64s(vals)
		f := a.cfg.F
		trimmed := vals[f : len(vals)-f]
		a.value = (trimmed[0] + trimmed[len(trimmed)-1]) / 2
		d.value = a.value
		a.track.Span("aaa.round", a.roundAt, int64(a.round), int64(witnesses))
		a.roundAt = a.track.Now()
		if a.round >= a.cfg.Rounds {
			a.done = true
			a.track.Instant("aaa.decide", int64(a.round), 0)
			for _, d := range a.rounds[1:] { // the result keeps the states, not the receipts
				*d = roundData{value: d.value}
			}
			a.env.Output(AbrahamResult{Output: a.value, Rounds: a.round, rounds: a.rounds})
			a.env.Halt()
			return
		}
		a.round++
		a.broadcastValue()
	}
}
