package aba_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"delphi/internal/aba"
	"delphi/internal/coin"
	"delphi/internal/node"
)

// recEnv is a node.Env that logs what a process emits, in order.
type recEnv struct {
	self node.ID
	n, f int
	log  []string
	msgs []node.Message
}

func (e *recEnv) Self() node.ID                   { return e.self }
func (e *recEnv) N() int                          { return e.n }
func (e *recEnv) F() int                          { return e.f }
func (e *recEnv) Send(to node.ID, m node.Message) { e.emit(fmt.Sprintf("send %d", to), m) }
func (e *recEnv) Broadcast(m node.Message)        { e.emit("broadcast", m) }
func (e *recEnv) Output(any)                      {}
func (e *recEnv) Halt()                           {}
func (e *recEnv) ChargeCompute(node.ComputeCost)  {}

func (e *recEnv) emit(how string, m node.Message) {
	e.log = append(e.log, fmt.Sprintf("%s %T%+v", how, m, m))
	e.msgs = append(e.msgs, m)
}

// newEngine builds an engine on env with its own coin source, logging each
// decision to env.
func newEngine(cfg node.Config, env *recEnv) (*aba.Engine, *coin.Source) {
	var eng *aba.Engine
	coins := coin.NewSource(cfg, env, 7, aba.CoinID(1), aba.MaxRounds, func(id, v uint64) { eng.OnCoin(id, v) })
	eng = aba.NewEngine(cfg, env, coins, func(inst uint32, v bool) {
		env.log = append(env.log, fmt.Sprintf("decide %d %v", inst, v))
	})
	return eng, coins
}

// TestDeliverOutOfRange: a BVAL or AUX naming an instance outside [0, n), a
// round of 0 or above MaxRounds, or sent from outside [0, n), is dropped
// with no panic, no allocation and nothing emitted; Input on an instance
// outside [0, n) starts nothing; and a repeated vote counts once.
func TestDeliverOutOfRange(t *testing.T) {
	const n, f = 7, 2
	cfg := node.Config{N: n, F: f}
	// Each case builds its i-th message, so a message that did make state
	// would make new state on every run.
	cases := []struct {
		name string
		msg  func(i int) (node.ID, node.Message)
	}{
		{"bval instance n+i", func(i int) (node.ID, node.Message) { return 1, &aba.BVal{Inst: uint32(n + i), Round: 1} }},
		{"bval round 0", func(i int) (node.ID, node.Message) { return node.ID(i % n), &aba.BVal{Inst: uint32(i % n)} }},
		{"bval round past 64", func(i int) (node.ID, node.Message) {
			return 1, &aba.BVal{Inst: 2, Round: uint16(aba.MaxRounds + 1 + i), V: true}
		}},
		{"bval from n+i", func(i int) (node.ID, node.Message) {
			return node.ID(n + i), &aba.BVal{Inst: 2, Round: uint16(1 + i%60)}
		}},
		{"aux instance n+i", func(i int) (node.ID, node.Message) { return 1, &aba.Aux{Inst: uint32(n + i), Round: 1} }},
		{"aux round 0", func(i int) (node.ID, node.Message) { return node.ID(i % n), &aba.Aux{Inst: uint32(i % n)} }},
		{"aux round past 64", func(i int) (node.ID, node.Message) { return 1, &aba.Aux{Inst: 2, Round: uint16(65 + i)} }},
		{"aux from n+i", func(i int) (node.ID, node.Message) { return node.ID(n + i), &aba.Aux{Inst: 2, Round: uint16(1 + i%60)} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := &recEnv{n: n, f: f}
			eng, _ := newEngine(cfg, env)
			const runs = 100
			froms := make([]node.ID, runs+1) // AllocsPerRun makes one warm-up call
			msgs := make([]node.Message, runs+1)
			for i := range msgs {
				froms[i], msgs[i] = c.msg(i)
			}
			i := 0
			if a := testing.AllocsPerRun(runs, func() { eng.Handle(froms[i], msgs[i]); i++ }); a != 0 {
				t.Errorf("%.1f allocations per dropped message", a)
			}
			if len(env.log) != 0 {
				t.Errorf("a dropped message emitted %q", env.log)
			}
		})
	}
	t.Run("input outside the slots", func(t *testing.T) {
		env := &recEnv{n: n, f: f}
		eng, _ := newEngine(cfg, env)
		eng.Input(n, true)
		eng.Input(^uint32(0), false)
		if len(env.log) != 0 {
			t.Errorf("Input outside [0, n) emitted %q", env.log)
		}
		if decided, _ := eng.Decided(n); decided {
			t.Error("instance n decided")
		}
	})
	t.Run("duplicate vote counts once", func(t *testing.T) {
		env := &recEnv{n: n, f: f}
		eng, _ := newEngine(cfg, env)
		bval := &aba.BVal{Inst: 3, Round: 2, V: true}
		for i := 0; i < n; i++ {
			eng.Handle(4, bval)
		}
		for from := node.ID(0); from < f-1; from++ {
			eng.Handle(from, bval)
		}
		if len(env.log) != 0 {
			t.Fatalf("t distinct BVALs and repeats sent %q", env.log)
		}
		eng.Handle(n-1, bval)
		if want := "broadcast *aba.BVal&{Inst:3 Round:2 V:true}"; len(env.log) != 1 || env.log[0] != want {
			t.Fatalf("the (t+1)-th distinct BVAL sent %q, want %q", env.log, want)
		}
	})
}

// TestABARoundAllocs: one round's first BVAL and first AUX for every instance
// cost at most two allocations in total (the round's row of states and its
// voter slab), not some per instance.
func TestABARoundAllocs(t *testing.T) {
	const n, f, runs = 16, 5, 20
	env := &recEnv{n: n, f: f}
	eng, _ := newEngine(node.Config{N: n, F: f}, env)
	// msgs[r-1] is one sender's BVAL and AUX for every instance in round r
	// (AllocsPerRun makes one warm-up call, on round 1).
	msgs := make([][]node.Message, runs+1)
	for r := range msgs {
		for i := range n {
			msgs[r] = append(msgs[r],
				&aba.BVal{Inst: uint32(i), Round: uint16(r + 1), V: true},
				&aba.Aux{Inst: uint32(i), Round: uint16(r + 1), V: true})
		}
	}
	r := 0
	a := testing.AllocsPerRun(runs, func() {
		for _, m := range msgs[r] {
			eng.Handle(1, m)
		}
		r++
	})
	if a > 2 {
		t.Errorf("%.1f allocations for a round's first BVALs and AUXes, want ≤ 2", a)
	}
	if len(env.log) != 0 {
		t.Errorf("one sender's votes emitted %q", env.log)
	}
}

// TestFarRoundBound: rounds are rows shared by every instance, so a BVAL from
// an in-range sender naming round MaxRounds makes that one row (two
// allocations), and repeating it allocates nothing and emits nothing.
func TestFarRoundBound(t *testing.T) {
	const n, f, runs = 7, 2, 20
	cfg := node.Config{N: n, F: f}
	far := &aba.BVal{Inst: 2, Round: aba.MaxRounds, V: true}
	// Each run hands the BVAL to a fresh engine (AllocsPerRun makes one
	// warm-up call).
	envs := make([]*recEnv, runs+1)
	engs := make([]*aba.Engine, runs+1)
	for i := range engs {
		envs[i] = &recEnv{n: n, f: f}
		engs[i], _ = newEngine(cfg, envs[i])
	}
	i := 0
	if a := testing.AllocsPerRun(runs, func() { engs[i].Handle(1, far); i++ }); a > 2 {
		t.Errorf("%.1f allocations for a round-%d BVAL, want ≤ 2 (one row)", a, aba.MaxRounds)
	}
	if a := testing.AllocsPerRun(100, func() { engs[0].Handle(1, far) }); a != 0 {
		t.Errorf("%.1f allocations per repeated round-%d BVAL", a, aba.MaxRounds)
	}
	for _, env := range envs {
		if len(env.log) != 0 {
			t.Errorf("a far-round BVAL emitted %q", env.log)
		}
	}
}

// TestSplitThroughAllRounds: BVALs on both values and AUXes split between
// them keep an instance undecided (its estimate becomes the coin) through
// all MaxRounds rounds, so it leaves round MaxRounds with a BVAL for round
// MaxRounds+1; or, with the last round's AUXes all on that round's coin, it
// decides there and sends its zombie BVAL and AUX for round MaxRounds+1.
// Either way the engine emits and decides what the oracle does.
func TestSplitThroughAllRounds(t *testing.T) {
	const n, f = 7, 2
	cfg := node.Config{N: n, F: f}
	for _, decideLast := range []bool{false, true} {
		t.Run(fmt.Sprintf("decide in the last round %v", decideLast), func(t *testing.T) {
			p := newPair(cfg, aba.MaxRounds)
			p.input(2, true)
			for r := 1; r <= aba.MaxRounds; r++ {
				for from := node.ID(0); from < 2*f+1; from++ {
					p.handle(from, &aba.BVal{Inst: 2, Round: uint16(r), V: false})
					p.handle(from, &aba.BVal{Inst: 2, Round: uint16(r), V: true})
				}
				coinBit := p.coins.Value(aba.CoinID(r))&1 == 1
				for from := node.ID(0); from < n-f; from++ {
					v := from > f // t+1 AUXes on false, the rest of n−t on true
					if decideLast && r == aba.MaxRounds {
						v = coinBit
					}
					p.handle(from, &aba.Aux{Inst: 2, Round: uint16(r), V: v})
				}
				for from := node.ID(0); from <= f; from++ {
					p.share(from, r)
				}
			}
			got, want := p.logs[0].log, p.logs[1].log
			if !slices.Equal(got, want) {
				t.Fatalf("engine %q\noracle %q", got, want)
			}
			decided, v := p.eng.Decided(2)
			if decided != decideLast || decided && v != (p.coins.Value(aba.CoinID(aba.MaxRounds))&1 == 1) {
				t.Errorf("Decided = %v, %v", decided, v)
			}
			last := fmt.Sprintf("Round:%d", aba.MaxRounds+1)
			if !slices.ContainsFunc(got, func(s string) bool { return strings.Contains(s, last) }) {
				t.Errorf("no emission names round %d: %q", aba.MaxRounds+1, got[len(got)-3:])
			}
		})
	}
}

// pair is the engine and the oracle, each on its own coin source, fed one
// stream of events; logs[0] is what the engine emits and decides, logs[1]
// the oracle.
type pair struct {
	logs  [2]*recEnv
	eng   *aba.Engine
	coins *coin.Source
	orc   *oracle
	// shares[from][r-1] is from's genuine share for round r's coin.
	shares [][]*coin.Share
}

// newPair builds a pair with every sender's shares for rounds [1, rounds].
func newPair(cfg node.Config, rounds int) *pair {
	p := &pair{logs: [2]*recEnv{{n: cfg.N, f: cfg.F}, {n: cfg.N, f: cfg.F}}}
	p.eng, p.coins = newEngine(cfg, p.logs[0])
	p.orc = &oracle{cfg: cfg, env: p.logs[1], insts: map[uint32]*oInst{}, decide: func(inst uint32, v bool) {
		p.logs[1].log = append(p.logs[1].log, fmt.Sprintf("decide %d %v", inst, v))
	}}
	p.orc.coins = coin.NewSource(cfg, p.logs[1], 7, aba.CoinID(1), aba.MaxRounds, p.orc.onCoin)
	p.shares = make([][]*coin.Share, cfg.N)
	for from := range p.shares {
		env := &recEnv{self: node.ID(from), n: cfg.N, f: cfg.F}
		src := coin.NewSource(cfg, env, 7, aba.CoinID(1), aba.MaxRounds, nil)
		for r := 1; r <= rounds; r++ {
			src.Request(aba.CoinID(r))
			p.shares[from] = append(p.shares[from], env.msgs[r-1].(*coin.Share))
		}
	}
	return p
}

func (p *pair) input(inst uint32, v bool) { p.eng.Input(inst, v); p.orc.input(inst, v) }

func (p *pair) handle(from node.ID, m node.Message) { p.eng.Handle(from, m); p.orc.handle(from, m) }

// share hands both sides from's share for round r's coin.
func (p *pair) share(from node.ID, r int) {
	p.coins.Handle(from, p.shares[from][r-1])
	p.orc.coins.Handle(from, p.shares[from][r-1])
}

// oracle is the map-keyed ABA engine the dense one replaced, trace spans
// left out: instances in a map, resumed in sorted id order on a coin, and
// voters in maps. It carries the engine's drop rules, so the two must emit
// and decide the same, in the same order.
type oracle struct {
	cfg    node.Config
	env    node.Env
	coins  *coin.Source
	decide func(uint32, bool)
	insts  map[uint32]*oInst
}

type oInst struct {
	id                           uint32
	started, est, decided, value bool
	round                        int
	rounds                       []*oRound
}

type oRound struct {
	bvalSent, binValues [2]bool
	bval, aux           [2]map[node.ID]bool
	auxSent, coinReady  bool
	coinValue           uint64
}

func (x *oInst) rs(r int) *oRound {
	for len(x.rounds) < r {
		x.rounds = append(x.rounds, &oRound{bval: [2]map[node.ID]bool{{}, {}}, aux: [2]map[node.ID]bool{{}, {}}})
	}
	return x.rounds[r-1]
}

func (o *oracle) inst(id uint32) *oInst {
	if id >= uint32(o.cfg.N) {
		return nil
	}
	if o.insts[id] == nil {
		o.insts[id] = &oInst{id: id}
	}
	return o.insts[id]
}

func (o *oracle) onCoin(coinID, value uint64) {
	ids := make([]uint32, 0, len(o.insts))
	for id := range o.insts {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if x := o.insts[id]; x.started && !x.decided && aba.CoinID(x.round) == coinID {
			rs := x.rs(x.round)
			rs.coinValue, rs.coinReady = value, true
			o.progress(x)
		}
	}
}

func (o *oracle) input(inst uint32, v bool) {
	if x := o.inst(inst); x != nil && !x.started {
		x.started, x.est, x.round = true, v, 1
		o.startRound(x)
	}
}

func (o *oracle) startRound(x *oInst) {
	if rs := x.rs(x.round); !rs.bvalSent[bi(x.est)] {
		rs.bvalSent[bi(x.est)] = true
		o.env.Broadcast(&aba.BVal{Inst: x.id, Round: uint16(x.round), V: x.est})
	}
	o.progress(x)
}

func (o *oracle) handle(from node.ID, m node.Message) {
	var inst uint32
	var round uint16
	var v bool
	switch m := m.(type) {
	case *aba.BVal:
		inst, round, v = m.Inst, m.Round, m.V
	case *aba.Aux:
		inst, round, v = m.Inst, m.Round, m.V
	}
	x, r := o.inst(inst), int(round)
	if x == nil || r < 1 || r > aba.MaxRounds || uint(from) >= uint(o.cfg.N) {
		return
	}
	rs := x.rs(r)
	o.zombie(x, r)
	_, isAux := m.(*aba.Aux)
	set := rs.bval[bi(v)]
	if isAux {
		set = rs.aux[bi(v)]
	}
	if set[from] {
		return
	}
	set[from] = true
	if !isAux && len(set) >= o.cfg.F+1 && !rs.bvalSent[bi(v)] {
		rs.bvalSent[bi(v)] = true
		o.env.Broadcast(&aba.BVal{Inst: x.id, Round: uint16(r), V: v})
	}
	if !isAux && len(set) >= 2*o.cfg.F+1 {
		rs.binValues[bi(v)] = true
	}
	if x.started && !x.decided {
		o.progress(x)
	}
}

func (o *oracle) zombie(x *oInst, r int) {
	if !x.decided || r <= x.round {
		return
	}
	rs := x.rs(r)
	if !rs.bvalSent[bi(x.value)] {
		rs.bvalSent[bi(x.value)] = true
		o.env.Broadcast(&aba.BVal{Inst: x.id, Round: uint16(r), V: x.value})
	}
	if !rs.auxSent {
		rs.auxSent = true
		o.env.Broadcast(&aba.Aux{Inst: x.id, Round: uint16(r), V: x.value})
	}
}

func (o *oracle) progress(x *oInst) {
	for !x.decided && x.round <= aba.MaxRounds {
		rs := x.rs(x.round)
		if !rs.auxSent {
			var w bool
			switch {
			case rs.binValues[bi(x.est)]:
				w = x.est
			case rs.binValues[0]:
			case rs.binValues[1]:
				w = true
			default:
				return
			}
			rs.auxSent = true
			o.env.Broadcast(&aba.Aux{Inst: x.id, Round: uint16(x.round), V: w})
		}
		n0, n1 := 0, 0
		if rs.binValues[0] {
			n0 = len(rs.aux[0])
		}
		if rs.binValues[1] {
			n1 = len(rs.aux[1])
		}
		if n0+n1 < o.cfg.Quorum() {
			return
		}
		if !rs.coinReady {
			v, ok := o.coins.TryValue(aba.CoinID(x.round))
			if !ok {
				o.coins.Request(aba.CoinID(x.round))
				return
			}
			rs.coinValue, rs.coinReady = v, true
		}
		coinBit := rs.coinValue&1 == 1
		switch {
		case n0 > 0 && n1 > 0:
			x.est = coinBit
		case n1 > 0:
			x.est, x.decided, x.value = true, coinBit, true
		default:
			x.est, x.decided, x.value = false, !coinBit, false
		}
		if x.decided {
			o.zombie(x, x.round+1)
			o.decide(x.id, x.value)
			return
		}
		x.round++
		o.startRound(x)
		return
	}
}

func bi(v bool) int {
	if v {
		return 1
	}
	return 0
}

// FuzzABACounts hands the engine and the oracle one byte-driven stream of
// inputs, BVALs, AUXes and coin shares — repeats, both values per round,
// votes ahead of their round, rounds after a decision (zombie rounds), and
// instances, rounds and senders out of range — and requires the same
// emissions and decisions, in order.
func FuzzABACounts(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	// unanimous builds unanimous 1 on the given instances: their inputs,
	// then BVALs and AUXes from five senders and coin shares from three for
	// rounds 1 (coin 0) and 2 (coin 1, so they decide), then round-3 votes
	// from a laggard (a zombie round).
	unanimous := func(insts ...byte) (seed []byte) {
		for _, x := range insts {
			seed = append(seed, 0x00, x, 0x01)
		}
		for r := byte(1); r <= 2; r++ {
			for _, x := range insts {
				for from := byte(0); from < 5; from++ {
					seed = append(seed, 0x40|from, x, r<<4|1, 0x80|from, x, r<<4|1)
				}
			}
			for from := byte(0); from < 3; from++ {
				seed = append(seed, 0xc0|from, 0x00, r<<4)
			}
		}
		return append(seed, 0x46, insts[0], 0x31, 0x86, insts[0], 0x31)
	}
	f.Add(unanimous(2))
	// Two instances waiting on one coin: OnCoin resumes them in slot order.
	f.Add(unanimous(4, 2))
	// Split BVALs and AUXes on instance 2, three senders for each value,
	// then the rest of unanimous(2) from its round-1 shares on.
	split := []byte{0x00, 0x02, 0x01}
	for from := byte(0); from < 6; from++ {
		split = append(split, 0x40|from, 0x02, 0x10|from&1)
	}
	for from := byte(0); from < 6; from++ {
		split = append(split, 0x80|from, 0x02, 0x10|from&1)
	}
	f.Add(append(split, unanimous(2)[33:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		const n, fault, rounds = 7, 2, 4
		p := newPair(node.Config{N: n, F: fault}, rounds)
		for len(data) >= 3 {
			// Byte 0: kind (top two bits) and sender (low nibble, mod n+1);
			// byte 1: instance (mod n+1); byte 2: round (high nibble, mod
			// rounds+2; 0 and rounds+1 are out of range or ahead) and value
			// (bit 0).
			from := node.ID(int(data[0]&15) % (n + 1))
			inst := uint32(data[1]) % (n + 1)
			r, v := uint16(data[2]>>4)%(rounds+2), data[2]&1 == 1
			if r == rounds+1 && data[2]&2 != 0 {
				r = aba.MaxRounds + 1
			}
			what := fmt.Sprintf("%#x %d %d %d %v", data[0]>>6, from, inst, r, v)
			switch data[0] >> 6 {
			case 0:
				p.input(inst, v)
			case 1:
				p.handle(from, &aba.BVal{Inst: inst, Round: r, V: v})
			case 2:
				p.handle(from, &aba.Aux{Inst: inst, Round: r, V: v})
			case 3:
				if int(from) < n && r >= 1 && r <= rounds {
					p.share(from, int(r))
				}
			}
			data = data[3:]
			if len(p.logs[0].log) != len(p.logs[1].log) {
				t.Fatalf("after %s:\nengine %q\noracle %q", what, p.logs[0].log, p.logs[1].log)
			}
		}
		if !slices.Equal(p.logs[0].log, p.logs[1].log) {
			t.Fatalf("engine %q\noracle %q", p.logs[0].log, p.logs[1].log)
		}
	})
}
