package aaa

import (
	"fmt"
	"math"

	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/wire"
)

// DolevConfig parameterises the Dolev et al. (JACM'86) baseline, which
// needs n >= 5t+1.
type DolevConfig struct {
	// N is the number of nodes.
	N int
	// F is the fault bound t, with n >= 5t+1.
	F int
	// Rounds is the number of halving rounds.
	Rounds int
}

// Validate checks the configuration.
func (c DolevConfig) Validate() error {
	if c.N <= 0 || c.F < 0 {
		return fmt.Errorf("aaa: invalid n=%d f=%d", c.N, c.F)
	}
	if c.N < 5*c.F+1 {
		return fmt.Errorf("aaa: dolev needs n >= 5t+1, got n=%d t=%d", c.N, c.F)
	}
	if c.Rounds < 1 {
		return fmt.Errorf("aaa: rounds must be >= 1, got %d", c.Rounds)
	}
	return nil
}

// DolevResult is the baseline's output.
type DolevResult struct {
	// Output is the node's final state value.
	Output float64
	// Rounds is the number of rounds run.
	Rounds int
	rounds []dolevRound // each round's state, for RoundValue
}

// RoundValue returns the node's state after round r, for r in [1, Rounds];
// ok is false for any other r, or if the result carries no rounds.
func (x DolevResult) RoundValue(r int) (v float64, ok bool) {
	if r < 1 || r > len(x.rounds) {
		return 0, false
	}
	return x.rounds[r-1].value, true
}

// Dolev runs one node of the classic 1986 approximate agreement: plain
// multicast of the state each round, collect n-t values, trim t from each
// side, update to the midpoint of what is left.
//
// Why that halves the honest range when n > 5t: two honest nodes i and j
// share at least n-3t honest senders C, who send both the same value. At
// most t of i's receipts lie below its trimmed low end, so at least |C|-t of
// C lie at or above it; likewise at least |C|-t lie at or below j's trimmed
// high end. Some value of C does both when 2(|C|-t) > |C|, i.e. |C| > 2t,
// which n > 5t gives. So every two trimmed ranges overlap, inside the honest
// range, and their midpoints lie within half of it. (Trimming 2t would need
// |C| > 4t, i.e. n > 7t.)
type Dolev struct {
	cfg     DolevConfig
	env     node.Env
	track   *obs.Track
	roundAt int64
	value   float64
	round   int
	rounds  []dolevRound // rounds[r-1] is round r's receipts
	done    bool
}

// dolevRound is one round's receipts, allocated on the round's first
// message: who has been heard from and what they sent, in arrival order;
// and the state the node took from them.
type dolevRound struct {
	seen  node.Set
	vals  []float64
	value float64
}

var _ node.Process = (*Dolev)(nil)

// NewDolev creates a node with the given input.
func NewDolev(cfg DolevConfig, input float64) (*Dolev, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if math.IsNaN(input) || math.IsInf(input, 0) {
		return nil, fmt.Errorf("aaa: input must be finite, got %g", input)
	}
	return &Dolev{cfg: cfg, value: input, round: 1, rounds: make([]dolevRound, cfg.Rounds)}, nil
}

// Init implements node.Process.
func (d *Dolev) Init(env node.Env) {
	d.env = env
	d.track = node.TrackOf(env)
	d.roundAt = d.track.Now()
	env.Broadcast(wire.New(wire.SentArena(env), Value{Round: 1, V: d.value}))
}

// Deliver implements node.Process.
func (d *Dolev) Deliver(from node.ID, m node.Message) {
	msg, ok := m.(*Value)
	if !ok || d.done {
		return
	}
	r := int(msg.Round)
	if r < 1 || r > d.cfg.Rounds || from < 0 || int(from) >= d.cfg.N || math.IsNaN(msg.V) || math.IsInf(msg.V, 0) {
		return
	}
	rd := &d.rounds[r-1]
	if rd.seen == nil {
		rd.seen = make(node.Set, node.SetWords(d.cfg.N))
		rd.vals = make([]float64, 0, d.cfg.N)
	}
	if !rd.seen.Add(from) {
		return
	}
	rd.vals = append(rd.vals, msg.V)
	d.progress()
}

func (d *Dolev) progress() {
	quorum := d.cfg.N - d.cfg.F
	for !d.done {
		rv := d.rounds[d.round-1].vals
		if len(rv) < quorum {
			return
		}
		// The round reads two order statistics of its receipts, the ends of
		// what trimming t from each side leaves: two selections, the second
		// inside what the first left above it. Reordered in place: a round's
		// receipts are read once, here, and a later one only appends to a
		// slice nothing reads again.
		trim := d.cfg.F
		lo := selectFloat(rv, trim)
		hi := selectFloat(rv[trim:], len(rv)-1-2*trim)
		d.value = (lo + hi) / 2
		d.rounds[d.round-1].value = d.value
		d.track.Span("aaa.round", d.roundAt, int64(d.round), int64(len(rv)))
		d.roundAt = d.track.Now()
		if d.round >= d.cfg.Rounds {
			d.done = true
			d.track.Instant("aaa.decide", int64(d.round), 0)
			for i := range d.rounds { // the result keeps the states, not the receipts
				d.rounds[i] = dolevRound{value: d.rounds[i].value}
			}
			d.env.Output(DolevResult{Output: d.value, Rounds: d.round, rounds: d.rounds})
			d.env.Halt()
			return
		}
		d.round++
		d.env.Broadcast(wire.New(wire.SentArena(d.env), Value{Round: uint16(d.round), V: d.value}))
	}
}

// selectFloat returns the value sort.Float64s would leave at v[k], v being
// free of NaNs (Deliver drops them), and reorders v no further than that
// takes: afterwards v[k] holds it, nothing before k orders after it and
// nothing after k before it. Median-of-three Hoare selection, linear where
// the sort the round does not need is n log n.
func selectFloat(v []float64, k int) float64 {
	// Invariant: v[:lo] <= v[lo:hi+1] <= v[hi+1:] and lo <= k <= hi.
	lo, hi := 0, len(v)-1
	for hi-lo >= 12 {
		mid := lo + (hi-lo)/2
		if v[mid] < v[lo] {
			v[mid], v[lo] = v[lo], v[mid]
		}
		if v[hi] < v[lo] {
			v[hi], v[lo] = v[lo], v[hi]
		}
		if v[hi] < v[mid] {
			v[hi], v[mid] = v[mid], v[hi]
		}
		// v[lo] <= p <= v[hi] bound the first scans, swapped pairs the rest.
		p := v[mid]
		i, j := lo, hi
		for i <= j {
			for v[i] < p {
				i++
			}
			for p < v[j] {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		// v[lo:j+1] <= p <= v[i:hi+1], and anything between equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return v[k]
		}
	}
	for i := lo + 1; i <= hi; i++ {
		x := v[i]
		j := i - 1
		for j >= lo && x < v[j] {
			v[j+1] = v[j]
			j--
		}
		v[j+1] = x
	}
	return v[k]
}
