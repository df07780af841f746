// Package aba implements signature-free asynchronous binary Byzantine
// agreement in the style of Mostéfaoui, Moumen and Raynal (JACM'15): rounds
// of binary-value (BVAL) broadcast with amplification, AUX vote collection,
// and a common coin to break symmetry. It is the per-slot agreement inside
// the FIN-style ACS baseline.
//
// Many instances run concurrently, multiplexed by an instance id that is
// the ACS slot: ids are [0, n). The engine keeps the instances in a slice by
// slot and their vote state in one row per round, made on the round's first
// message, so an engine allocates for the rounds it runs: FIN decides in 1–3.
// A BVAL or AUX naming an instance outside [0, n), or a round of 0 or above
// MaxRounds, is dropped before any state exists. To mirror FIN's
// coin economy, all instances of one engine share a single coin per round
// rather than one coin per (instance, round).
package aba

import (
	"delphi/internal/coin"
	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/wire"
)

// BVal is the binary-value broadcast message.
type BVal struct {
	// Inst is the ABA instance id.
	Inst uint32
	// Round is the ABA round (1-based).
	Round uint16
	// V is the binary value (the vote, in an Aux).
	V bool
}

// Type implements node.Message.
func (m *BVal) Type() uint8 { return wire.TypeABABVal }

// WireSize implements node.Message.
func (m *BVal) WireSize() int { return 1 + 4 + 2 + 1 }

// AppendBinary implements node.Message.
func (m *BVal) AppendBinary(b []byte) ([]byte, error) {
	w := wire.Writer(b)
	w.U32(m.Inst)
	w.U16(m.Round)
	w.Bool(m.V)
	return w, nil
}

// decode reads a BVal or Aux body into m.
func (m *BVal) decode(body []byte) error {
	r := wire.NewReader(body)
	m.Inst = r.U32()
	m.Round = r.U16()
	m.V = r.Bool()
	return r.Err()
}

// Aux is the per-round auxiliary vote. Its fields and layout are BVal's.
type Aux BVal

// Type implements node.Message.
func (m *Aux) Type() uint8 { return wire.TypeABAAux }

// WireSize implements node.Message.
func (m *Aux) WireSize() int { return (*BVal)(m).WireSize() }

// AppendBinary implements node.Message.
func (m *Aux) AppendBinary(b []byte) ([]byte, error) { return (*BVal)(m).AppendBinary(b) }

// DecodeBVal decodes a BVal body.
func DecodeBVal(body []byte, a *wire.Arena) (node.Message, error) {
	m := wire.New(a, BVal{})
	return m, m.decode(body)
}

// DecodeAux decodes an Aux body.
func DecodeAux(body []byte, a *wire.Arena) (node.Message, error) {
	m := wire.New(a, Aux{})
	return m, (*BVal)(m).decode(body)
}

// Register installs the package's decoders.
func Register(reg *wire.Registry) error {
	if err := reg.Register(wire.TypeABABVal, DecodeBVal); err != nil {
		return err
	}
	return reg.Register(wire.TypeABAAux, DecodeAux)
}

// MaxRounds bounds an instance's rounds; with a perfectly common coin an
// honest-majority instance decides in expected <= 3 rounds, so hitting the
// bound indicates a bug rather than bad luck.
const MaxRounds = 64

// roundState is one instance's vote state in one round: the values it has
// sent and accepted, and how many distinct BVALs and AUXes it holds for each.
// Their voter sets are in the round's row.
type roundState struct {
	bvalSent, binValues [2]bool
	auxSent, coinReady  bool
	nBval, nAux         [2]int32
	coinValue           uint64
	// startAt is the trace-clock reading when the round opened (feeds the
	// per-round span; zero when tracing is disabled).
	startAt int64
}

// row is one round of every instance: its number, states[inst], and the
// instances' BVAL and AUX voter sets, four per instance, carved from one slab.
type row struct {
	round  int
	states []roundState
	voters node.Set
}

// instance is one ABA's state across rounds.
type instance struct {
	id                           uint32
	started, est, decided, value bool
	round                        int
}

// Engine multiplexes ABA instances for one node.
type Engine struct {
	cfg    node.Config
	env    node.Env
	track  *obs.Track
	coins  *coin.Source
	decide func(inst uint32, v bool)
	// insts[id] is instance id, one per ACS slot.
	insts []instance
	// rows holds the rounds in first-use order, each made on its round's
	// first use, the first four in inline: the rounds an engine runs, not
	// MaxRounds of them, so a far round's BVAL makes one row like any other.
	// Round MaxRounds+1 only holds the BVAL and AUX an instance sends on
	// leaving round MaxRounds. A row's states and voters never move.
	rows   []row
	inline [4]row
	sent   *wire.Arena // what it sends is carved from, lent by env (see wire.Lender)
}

// row returns round r's row, made on its first use. It looks from the
// latest row back: the current rounds are the last made.
func (e *Engine) row(r int) *row {
	for i := len(e.rows) - 1; i >= 0; i-- {
		if e.rows[i].round == r {
			return &e.rows[i]
		}
	}
	n := e.cfg.N
	e.rows = append(e.rows, row{round: r, states: make([]roundState, n), voters: make(node.Set, 4*n*node.SetWords(n))})
	return &e.rows[len(e.rows)-1]
}

// rs returns instance x's state in round r.
func (e *Engine) rs(x *instance, r int) *roundState { return &e.row(r).states[x.id] }

// NewEngine creates an ABA engine. decide fires once per decided instance.
// The coin source must be dedicated to this engine (it keys coins by
// round) and serve CoinID(1) to CoinID(MaxRounds).
func NewEngine(cfg node.Config, env node.Env, coins *coin.Source, decide func(uint32, bool)) *Engine {
	insts := make([]instance, cfg.N)
	for i := range insts {
		insts[i].id = uint32(i)
	}
	e := &Engine{cfg: cfg, env: env, track: node.TrackOf(env), coins: coins, decide: decide, insts: insts, sent: wire.SentArena(env)}
	e.rows = e.inline[:0]
	return e
}

// CoinID derives the coin identifier for a round (shared across instances,
// FIN-style).
func CoinID(round int) uint64 { return 0x0a0b<<32 | uint64(round) }

// OnCoin must be invoked by the owner when the coin source reveals a coin
// requested by this engine. Instances are resumed in slot order: progress
// broadcasts messages, so the emission order — and with it the whole
// simulated schedule — is fixed by the slots, not by arrival.
func (e *Engine) OnCoin(coinID, value uint64) {
	for i := range e.insts {
		x := &e.insts[i]
		if x.started && !x.decided && CoinID(x.round) == coinID {
			rs := e.rs(x, x.round)
			rs.coinValue = value
			rs.coinReady = true
			e.progress(x)
		}
	}
}

// Input starts an instance with the node's estimate (idempotent).
func (e *Engine) Input(inst uint32, v bool) {
	x := e.inst(inst)
	if x == nil || x.started {
		return
	}
	x.started = true
	x.est = v
	x.round = 1
	e.startRound(x)
}

// Decided reports whether the instance has decided, and its value.
func (e *Engine) Decided(inst uint32) (bool, bool) {
	if x := e.inst(inst); x != nil {
		return x.decided, x.value
	}
	return false, false
}

// inst returns instance id, or nil when id is not a slot.
func (e *Engine) inst(id uint32) *instance {
	if uint64(id) >= uint64(len(e.insts)) {
		return nil
	}
	return &e.insts[id]
}

func bi(v bool) int {
	if v {
		return 1
	}
	return 0
}

func (e *Engine) startRound(x *instance) {
	rs := e.rs(x, x.round)
	if rs.startAt == 0 {
		rs.startAt = e.track.Now()
	}
	if !rs.bvalSent[bi(x.est)] {
		rs.bvalSent[bi(x.est)] = true
		e.env.Broadcast(wire.New(e.sent, BVal{Inst: x.id, Round: uint16(x.round), V: x.est}))
	}
	e.progress(x)
}

// Handle routes an ABA message; returns true if it was one.
func (e *Engine) Handle(from node.ID, m node.Message) bool {
	switch msg := m.(type) {
	case *BVal:
		e.onBVal(from, msg)
	case *Aux:
		e.onAux(from, msg)
	default:
		return false
	}
	return true
}

// vote counts from's BVAL (aux false) or AUX on v and returns its instance
// and round, or nils when the instance, the round or the sender is out of
// range, or from has cast this vote already.
func (e *Engine) vote(from node.ID, m *BVal, aux bool) (*instance, *roundState) {
	x, r := e.inst(m.Inst), int(m.Round)
	if x == nil || r < 1 || r > MaxRounds || uint(from) >= uint(e.cfg.N) {
		return nil, nil
	}
	w, k := e.row(r), node.SetWords(e.cfg.N)
	e.zombie(x, r)
	if !w.voters[(4*int(x.id)+2*bi(aux)+bi(m.V))*k:][:k].Add(from) {
		return nil, nil
	}
	return x, &w.states[x.id]
}

func (e *Engine) onBVal(from node.ID, m *BVal) {
	x, rs := e.vote(from, m, false)
	if x == nil {
		return
	}
	rs.nBval[bi(m.V)]++
	r, c := int(m.Round), int(rs.nBval[bi(m.V)])
	// Amplify on t+1.
	if c >= e.cfg.F+1 && !rs.bvalSent[bi(m.V)] {
		rs.bvalSent[bi(m.V)] = true
		e.env.Broadcast(wire.New(e.sent, BVal{Inst: x.id, Round: uint16(r), V: m.V}))
	}
	// Bin-values on 2t+1.
	if c >= 2*e.cfg.F+1 && !rs.binValues[bi(m.V)] {
		rs.binValues[bi(m.V)] = true
	}
	if x.started && !x.decided {
		e.progress(x)
	}
}

func (e *Engine) onAux(from node.ID, m *Aux) {
	x, rs := e.vote(from, (*BVal)(m), true)
	if x == nil {
		return
	}
	rs.nAux[bi(m.V)]++
	if x.started && !x.decided {
		e.progress(x)
	}
}

// zombie keeps a decided instance feeding later rounds: laggard peers still
// need BVAL and AUX quorums to reach their own decision, so a decided node
// echoes its value once per observed round.
func (e *Engine) zombie(x *instance, r int) {
	if !x.decided || r <= x.round {
		return
	}
	rs := e.rs(x, r)
	if !rs.bvalSent[bi(x.value)] {
		rs.bvalSent[bi(x.value)] = true
		e.env.Broadcast(wire.New(e.sent, BVal{Inst: x.id, Round: uint16(r), V: x.value}))
	}
	if !rs.auxSent {
		rs.auxSent = true
		e.env.Broadcast(wire.New(e.sent, Aux{Inst: x.id, Round: uint16(r), V: x.value}))
	}
}

// progress runs the round state machine for the instance's current round.
func (e *Engine) progress(x *instance) {
	for !x.decided && x.round <= MaxRounds {
		rs := e.rs(x, x.round)
		// Send AUX once some value entered bin_values.
		if !rs.auxSent {
			// The estimate if it entered bin_values, else the value that did.
			w := x.est
			if !rs.binValues[bi(w)] {
				if w = rs.binValues[1]; !w && !rs.binValues[0] {
					return // waiting for bin_values
				}
			}
			rs.auxSent = true
			e.env.Broadcast(wire.New(e.sent, Aux{Inst: x.id, Round: uint16(x.round), V: w}))
		}
		// Collect n-t AUX votes on values inside bin_values.
		n0, n1 := 0, 0
		if rs.binValues[0] {
			n0 = int(rs.nAux[0])
		}
		if rs.binValues[1] {
			n1 = int(rs.nAux[1])
		}
		if n0+n1 < e.cfg.Quorum() {
			return
		}
		// Need the round's common coin. The coin is shared across
		// instances, so it may already have been revealed by another
		// instance's progress — query the source directly.
		if !rs.coinReady {
			if v, ok := e.coins.TryValue(CoinID(x.round)); ok {
				rs.coinValue = v
				rs.coinReady = true
			} else {
				e.coins.Request(CoinID(x.round))
				return
			}
		}
		coinBit := rs.coinValue&1 == 1
		e.track.Instant("aba.coin", int64(x.round), int64(rs.coinValue&1))
		switch {
		case n0 > 0 && n1 > 0:
			x.est = coinBit
		case n1 > 0:
			x.est, x.decided, x.value = true, coinBit, coinBit
		default:
			x.est, x.decided = false, !coinBit
		}
		e.track.Span("aba.round", rs.startAt, int64(x.id), int64(x.round))
		if x.decided {
			// Help laggards immediately with the next round's votes; the
			// zombie path keeps feeding later rounds on demand.
			e.track.Instant("aba.decide", int64(x.id), int64(bi(x.value)))
			e.zombie(x, x.round+1)
			e.decide(x.id, x.value)
			return
		}
		x.round++
		e.startRound(x)
		return
	}
}
