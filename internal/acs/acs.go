// Package acs implements an asynchronous common subset protocol in the
// FIN/BKR family and uses it as the paper's convex-BA baseline ("FIN"):
// every node reliably broadcasts its input, one binary agreement per slot
// decides membership, and the output is the median of the agreed subset —
// which is guaranteed to lie within the honest input range (strict convex
// validity, [m, M]).
//
// Costs mirror the paper's accounting for FIN: O(ln² + κn³) bits (n Bracha
// broadcasts plus coin shares), constant expected rounds, and coin-bound
// computation (pairing-class share verifications), which is what makes it
// slow on the CPS testbed.
package acs

import (
	"fmt"
	"math"
	"sort"

	"delphi/internal/aba"
	"delphi/internal/coin"
	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/rbc"
	"delphi/internal/wire"
)

// Config parameterises the ACS.
type Config struct {
	// Config supplies n and t.
	node.Config
	// CoinSeed seeds the simulated threshold coin; all nodes must agree.
	CoinSeed uint64
}

// Result is the ACS output.
type Result struct {
	// Output is the median of the agreed subset's values.
	Output float64
	// Set lists the slots agreed into the subset.
	Set []node.ID
	// Values are the subset's broadcast values, aligned with Set.
	Values []float64
}

// Process runs one node of the ACS. It implements node.Process.
type Process struct {
	cfg     Config
	env     node.Env
	track   *obs.Track
	startAt int64
	input   float64

	rbcEng *rbc.Engine
	abaEng *aba.Engine
	coins  *coin.Source

	// values[i] is slot i's delivered value once valued has i; started,
	// decided and ones are the slots whose ABA has an input, has decided,
	// and has decided 1.
	values                         []float64
	valued, started, decided, ones node.Set
	nDecided, nOnes                int
	finished                       bool
}

var _ node.Process = (*Process)(nil)

// New creates an ACS node with the given real-valued input.
func New(cfg Config, input float64) (*Process, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if math.IsNaN(input) || math.IsInf(input, 0) {
		return nil, fmt.Errorf("acs: input must be finite, got %g", input)
	}
	w := node.SetWords(cfg.N)
	s := make(node.Set, 4*w)
	return &Process{
		cfg: cfg, input: input, values: make([]float64, cfg.N),
		valued: s[:w:w], started: s[w : 2*w : 2*w], decided: s[2*w : 3*w : 3*w], ones: s[3*w:],
	}, nil
}

// Init implements node.Process.
func (p *Process) Init(env node.Env) {
	p.env = env
	p.track = node.TrackOf(env)
	p.startAt = p.track.Now()
	p.rbcEng = rbc.NewEngine(p.cfg.Config, env, 1, p.onRBCDeliver)
	p.coins = coin.NewSource(p.cfg.Config, env, p.cfg.CoinSeed, aba.CoinID(1), aba.MaxRounds, p.onCoin)
	p.abaEng = aba.NewEngine(p.cfg.Config, env, p.coins, p.onABADecide)
	var w wire.Writer
	w.F64(p.input)
	p.rbcEng.Broadcast(0, w)
}

// Deliver implements node.Process.
func (p *Process) Deliver(from node.ID, m node.Message) {
	if p.rbcEng.Handle(from, m) {
		return
	}
	if p.abaEng.Handle(from, m) {
		return
	}
	p.coins.Handle(from, m)
}

func (p *Process) onCoin(id, value uint64) {
	p.abaEng.OnCoin(id, value)
}

func (p *Process) onRBCDeliver(k rbc.Key, payload []byte) {
	r := wire.NewReader(payload)
	v := r.F64()
	if r.Err() != nil || r.Remaining() != 0 {
		return // malformed broadcast from a Byzantine initiator
	}
	if !p.valued.Add(k.Initiator) {
		return
	}
	p.values[k.Initiator] = v
	if p.started.Add(k.Initiator) {
		p.abaEng.Input(uint32(k.Initiator), true)
	}
	p.tryFinish()
}

func (p *Process) onABADecide(slot uint32, v bool) {
	if !p.decided.Add(node.ID(slot)) {
		return
	}
	p.nDecided++
	var vi int64
	if v {
		vi = 1
		p.ones.Add(node.ID(slot))
		p.nOnes++
	}
	p.track.Instant("acs.slot", int64(slot), vi)
	// Once n-t slots are in, vote 0 for everything not yet started.
	if p.nOnes >= p.cfg.Quorum() {
		for i := 0; i < p.cfg.N; i++ {
			if p.started.Add(node.ID(i)) {
				p.abaEng.Input(uint32(i), false)
			}
		}
	}
	p.tryFinish()
}

func (p *Process) tryFinish() {
	if p.finished || p.nDecided < p.cfg.N {
		return
	}
	// All slots decided; wait for the subset's values (RBC totality).
	if !p.ones.SubsetOf(p.valued) {
		return // a value still in flight
	}
	set := make([]node.ID, 0, p.nOnes)
	vals, sorted := make([]float64, 0, p.nOnes), make([]float64, p.nOnes)
	for i := node.ID(0); int(i) < p.cfg.N; i++ {
		if p.ones.Has(i) {
			set = append(set, i)
			vals = append(vals, p.values[i])
		}
	}
	p.finished = true
	// The whole-protocol span: Init → subset decided with values in hand.
	p.track.Span("acs.decide", p.startAt, int64(len(set)), 0)
	copy(sorted, vals)
	sort.Float64s(sorted)
	p.env.Output(Result{Output: median(sorted), Set: set, Values: vals})
	p.env.Halt()
}

// median returns the median of a sorted slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
