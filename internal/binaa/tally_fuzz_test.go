package binaa

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"delphi/internal/node"
)

// oracle is a brute-force model of what an engine has counted: every
// delivery it was handed, recorded under the package comment's rules, and
// recounted from scratch per (instance, round). It knows nothing of
// implicit tallies.
type oracle struct {
	n int
	// bundles[(r, from)] is the sender's first round-r bundle (its round-r
	// entries, in order).
	bundles map[senderRound][]IVal
	// amps are amplification echoes, each counted in its own round.
	amps []ampVote
	// zeros holds the zeros bundles that arrived while their round was
	// current or ahead.
	zeros map[senderRound]bool
	// explicit[(x, r, from)] is the sender's first explicit ECHO2 counted.
	explicit map[explicitKey]float64
	// echo2s is every explicit ECHO2 that reached the engine, counted or not,
	// and whether it came as a bitmap bit or as an Echo2 entry.
	echo2s []echo2Vote
	// bits merges bitmaps waiting for their bundle, and pendingC holds a
	// compressed bundle waiting for its base.
	bits     map[senderRound][]byte
	pendingC map[senderRound]*Echo1C
}

// senderRound keys the oracle's per-bundle records.
type senderRound struct {
	from node.ID
	r    int
}

type ampVote struct {
	r    int
	from node.ID
	id   IID
	v    float64
}

type explicitKey struct {
	id   IID
	r    int
	from node.ID
}

type echo2Vote struct {
	explicitKey
	v      float64
	bitmap bool
}

// deliver records m as the engine, standing in round `round`, counts it.
func (o *oracle) deliver(round, rounds int, from node.ID, m node.Message) {
	valid := func(r int) bool { return r >= 1 && r <= rounds }
	switch msg := m.(type) {
	case *Echo1:
		if !msg.Init {
			for _, v := range msg.Vals {
				if valid(int(v.Round)) {
					o.amps = append(o.amps, ampVote{int(v.Round), from, v.ID, v.V})
				}
			}
			return
		}
		k := senderRound{from, int(msg.Round)}
		if _, seen := o.bundles[k]; seen || !valid(k.r) {
			return
		}
		var b []IVal
		for _, v := range msg.Vals {
			if int(v.Round) == k.r {
				b = append(b, v)
			}
		}
		o.record(round, k, b)
	case *Echo1C:
		k := senderRound{from, int(msg.Round)}
		if _, seen := o.bundles[k]; seen || !valid(k.r) || k.r < 2 {
			return
		}
		if _, ok := o.bundles[senderRound{from, k.r - 1}]; !ok {
			if _, ok := o.pendingC[k]; !ok {
				o.pendingC[k] = msg
			}
			return
		}
		o.rebuild(round, k, msg)
	case *Echo2:
		if r := int(msg.Round); msg.Zeros && valid(r) && r >= round {
			o.zeros[senderRound{from, r}] = true
		}
		for _, v := range msg.Vals {
			if r := int(v.Round); valid(r) && r >= round {
				o.vote2(explicitKey{v.ID, r, from}, v.V, false)
			}
		}
	case *Echo2C:
		k := senderRound{from, int(msg.Round)}
		if !valid(k.r) || k.r < round {
			return
		}
		if _, seen := o.bundles[k]; !seen {
			merged := o.bits[k]
			for len(merged) < len(msg.Bits) {
				merged = append(merged, 0)
			}
			for i, b := range msg.Bits {
				merged[i] |= b
			}
			o.bits[k] = merged
			return
		}
		o.applyBits(k, msg.Bits)
	}
}

// record stores the sender's round-k.r bundle b, then applies what waited
// for it: its compressed bundle for the next round and its bitmaps.
func (o *oracle) record(round int, k senderRound, b []IVal) {
	o.bundles[k] = b
	next := senderRound{k.from, k.r + 1}
	if m, ok := o.pendingC[next]; ok {
		delete(o.pendingC, next)
		o.rebuild(round, next, m)
	}
	if bits, ok := o.bits[k]; ok {
		delete(o.bits, k)
		if k.r >= round {
			o.applyBits(k, bits)
		}
	}
}

// rebuild records a compressed bundle as the sender's previous bundle with
// each symbol applied (applySymbol) and the new entries appended; a full
// bundle that overtook it, or a malformed one, leaves nothing.
func (o *oracle) rebuild(round int, k senderRound, m *Echo1C) {
	prev := o.bundles[senderRound{k.from, k.r - 1}]
	if _, seen := o.bundles[k]; seen || !wellFormed(m, len(prev)) {
		return
	}
	b, esc := make([]IVal, 0, len(prev)+len(m.NewVals)), 0
	for i, p := range prev {
		p.V = applySymbol(p.V, nibble(m.Deltas, i), k.r)
		if nibble(m.Deltas, i) == symX {
			p.V, esc = m.Escapes[esc], esc+1
		}
		b = append(b, p)
	}
	o.record(round, k, append(b, m.NewVals...))
}

func (o *oracle) applyBits(k senderRound, bits []byte) {
	for i, v := range o.bundles[k] {
		if getBit(bits, i) {
			o.vote2(explicitKey{v.ID, k.r, k.from}, v.V, true)
		}
	}
}

// vote2 records an explicit ECHO2 that reached the engine, from a bitmap or
// an Echo2 entry: a sender's first one counts.
func (o *oracle) vote2(k explicitKey, v float64, bitmap bool) {
	o.echo2s = append(o.echo2s, echo2Vote{k, v, bitmap})
	if _, ok := o.explicit[k]; !ok {
		o.explicit[k] = v
	}
}

// initVote is from's bundle vote for id in round r: its first listing, or
// an implicit 0; ok is false if from has no round-r bundle.
func (o *oracle) initVote(id IID, r int, from node.ID) (v float64, ok bool) {
	b, ok := o.bundles[senderRound{from, r}]
	if !ok {
		return 0, false
	}
	for _, e := range b {
		if e.ID == id {
			return e.V, true
		}
	}
	return 0, true
}

// tallies renders a value → voters table canonically: one line per set,
// values compared with == (so 0 and −0 share a set, and every NaN vote is a
// set of its own), empty sets left out.
func tallies(votes []ampVote) string {
	type set struct {
		v      float64
		voters []node.ID
	}
	var sets []*set
	for _, vt := range votes {
		var s *set
		if vt.v == vt.v {
			for _, c := range sets {
				if c.v == vt.v {
					s = c
				}
			}
		}
		if s == nil {
			s = &set{v: vt.v}
			sets = append(sets, s)
		}
		if !slices.Contains(s.voters, vt.from) {
			s.voters = append(s.voters, vt.from)
		}
	}
	lines := make([]string, 0, len(sets))
	for _, s := range sets {
		slices.Sort(s.voters)
		lines = append(lines, fmt.Sprintf("%g:%v", math.Abs(s.v), s.voters))
	}
	slices.Sort(lines)
	return strings.Join(lines, " ")
}

// engineTallies renders one of the engine's effective vote tables the same way.
func engineTallies(t *testing.T, vs votes, n int) string {
	var votes []ampVote
	for _, s := range vs.sets {
		k := 0
		for from := node.ID(0); int(from) < n; from++ {
			if s.set.get(from) {
				k++
				votes = append(votes, ampVote{v: s.v, from: from})
			}
		}
		if k != s.count {
			t.Fatalf("set %g counts %d but holds %d voters", s.v, s.count, k)
		}
		if s.v != s.v && k > 1 {
			t.Fatalf("a NaN set holds %d voters", k)
		}
	}
	// NaN sets hold one voter each, so regrouping them one vote at a time
	// reproduces them.
	return tallies(votes)
}

// check compares every (instance, round) of e with the recount.
func (o *oracle) check(t *testing.T, e *Engine) {
	for r := 1; r <= len(e.rs); r++ {
		for _, x := range e.instList {
			var echo1, echo2 []ampVote
			for from := node.ID(0); int(from) < o.n; from++ {
				v, ok := o.initVote(x.id, r, from)
				if ok {
					echo1 = append(echo1, ampVote{r, from, x.id, v})
				}
				if ex, okEx := o.explicit[explicitKey{x.id, r, from}]; okEx {
					echo2 = append(echo2, ampVote{r, from, x.id, ex})
				} else if ok && v == 0 && o.zeros[senderRound{from, r}] {
					echo2 = append(echo2, ampVote{r, from, x.id, 0})
				}
			}
			// Implicit: every bundle vote is u (plain), every echo repeats its
			// sender's bundle vote, and every explicit ECHO2 that came is a
			// bitmap vote for u ≠ 0.
			ir := e.rs[r-1].insts[x.idx]
			for _, v := range echo1 {
				if ir.t == nil && (!plain(v.v) || v.v != ir.u) {
					t.Fatalf("%v round %d: implicit at u=%g, but sender %d's bundle voted %g", x.id, r, ir.u, v.from, v.v)
				}
			}
			for _, a := range o.amps {
				if a.r == r && a.id == x.id {
					echo1 = append(echo1, a)
					if bv, ok := o.initVote(x.id, r, a.from); ir.t == nil && (!ok || bv != a.v) {
						t.Fatalf("%v round %d: implicit, but sender %d's echo %g is no repeat of its bundle vote", x.id, r, a.from, a.v)
					}
				}
			}
			for _, v := range o.echo2s {
				if ir.t == nil && v.id == x.id && v.r == r && !(v.bitmap && ir.u != 0 && v.v == ir.u) {
					t.Fatalf("%v round %d: implicit at u=%g after sender %d's ECHO2 %g (bitmap=%v)", x.id, r, ir.u, v.from, v.v, v.bitmap)
				}
			}
			tl := e.effective(x, r)
			if got, want := engineTallies(t, tl.echo1, o.n), tallies(echo1); got != want {
				t.Fatalf("%v round %d ECHO1 (implicit=%v):\n got %s\nwant %s", x.id, r, ir.t == nil, got, want)
			}
			if got, want := engineTallies(t, tl.echo2, o.n), tallies(echo2); got != want {
				t.Fatalf("%v round %d ECHO2 (implicit=%v):\n got %s\nwant %s", x.id, r, ir.t == nil, got, want)
			}
		}
	}
}

// fuzzVals is the value palette of FuzzEngineTallies: the lattice values,
// −0 and NaN.
var fuzzVals = [...]float64{0, 1, 0.5, math.Copysign(0, -1), math.NaN(), 0.25, 0.75, 1}

// fuzzStream reads FuzzEngineTallies' deliveries from bytes. Each delivery
// starts with one byte: kind (low three bits) and sender. An entry is one
// byte: instance K (0..5, low three bits) and value (fuzzVals, top three
// bits); a round is one byte, 1..rounds. A stream that runs dry reads zeros.
type fuzzStream struct {
	data []byte
}

func (s *fuzzStream) next() (byte, bool) {
	if len(s.data) == 0 {
		return 0, false
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b, true
}

func (s *fuzzStream) entry(r int) IVal {
	b, _ := s.next()
	return IVal{ID: IID{K: int32(b&7) % 6}, Round: uint16(r), V: fuzzVals[b>>5]}
}

func (s *fuzzStream) round(rounds int) int {
	b, _ := s.next()
	return 1 + int(b)%rounds
}

// FuzzEngineTallies checks the engine's effective ECHO1/ECHO2 voter sets —
// implicit or materialised — against a brute-force recount after every
// delivery of a byte-driven stream from n ∈ {4, 7} senders: bundles (listed
// zeros, duplicate listings, NaN and −0), amplification echoes (before their
// sender's bundle too), zeros bundles, bitmaps (over zero-listed entries
// too), explicit ECHO2s (overriding an implicit zero), late activation, and
// traffic for rounds the engine has left, and compressed bundles against the
// sender's previous bundle (mostly unchanged, which a quiet round records
// without walking them; else with one moved or escaped entry, or a new one).
// A sweep delivery — empty bundles and zeros bundles from n-t senders for the
// current round — moves the engine on, so that left rounds are reached.
func FuzzEngineTallies(f *testing.F) {
	// Kinds: 0 bundle (round, count, entries), 1 echo (round, entry), 2 zeros
	// (round), 3 bitmap (round, bits), 4 explicit ECHO2 (round, entry), 6
	// compressed bundle (round 2.., control byte c, then the entries c asks
	// for: with c's top bit, symbol c&7 at entry c>>4&7 mod the count — an
	// escape takes an entry's value — and with bit 3 one new entry), 5 and 7
	// sweep.
	op := func(kind, from byte, args ...byte) []byte { return append([]byte{kind | from<<3}, args...) }
	ent := func(k, val byte) byte { return k | val<<5 } // val indexes fuzzVals
	f.Add(slices.Concat([]byte{0},
		op(1, 1, 0, ent(2, 1)),                          // an echo ahead of its sender's bundle
		op(0, 1, 0, 3, ent(2, 1), ent(3, 0), ent(2, 2)), // a listed zero, a duplicate listing
		op(0, 2, 0, 3, ent(2, 1), ent(3, 3), ent(4, 4)), // −0, NaN
		op(3, 3, 0, 1), op(0, 3, 0, 1, ent(2, 1)), // a bitmap ahead of its bundle
		op(2, 1, 0), op(2, 2, 0), op(2, 3, 0),
		op(3, 1, 0, 3), op(3, 2, 0, 1), op(3, 3, 0, 1), // a bitmap bit over a zero-listed entry
		op(4, 3, 0, ent(3, 2)), // an explicit ECHO2 overriding an implicit zero
		op(5, 0), op(5, 1),     // rounds 1 and 2 left
		op(0, 0, 1, 1, ent(5, 2)), op(2, 0, 1), op(3, 0, 1, 1), op(4, 0, 0, ent(2, 1)), // late traffic
		op(1, 0, 0, ent(5, 1)), op(1, 2, 2, ent(1, 2)),
	))
	f.Add(slices.Concat([]byte{1},
		op(1, 6, 0, ent(1, 4)), // a NaN echo
		op(0, 1, 0, 1, ent(0, 1)), op(0, 2, 0, 1, ent(0, 1)), op(0, 3, 0, 1, ent(0, 1)),
		op(0, 4, 0, 2, ent(0, 1), ent(1, 5)), op(0, 5, 0, 1, ent(0, 1)),
		op(1, 6, 0, ent(0, 1)), // an echo of u from a sender with no bundle yet
		op(2, 1, 0), op(2, 2, 0), op(2, 3, 0), op(2, 4, 0), op(2, 5, 0),
		op(3, 1, 0, 1), op(3, 2, 0, 1), op(3, 3, 0, 1), op(3, 4, 0, 1), op(3, 5, 0, 1),
		op(5, 6), op(5, 2), // rounds 1 and 2 left
		op(0, 0, 1, 1, ent(4, 1)), op(2, 0, 1), op(1, 6, 1, ent(4, 1)), // a late bundle activates K4
		op(0, 1, 2, 1, ent(3, 3)),
	))
	// Bitmap votes for u = 1 at K2, counted implicitly, then what must
	// materialise the tally or be ignored by it.
	agree := slices.Concat(op(0, 1, 0, 1, ent(2, 1)), op(0, 2, 0, 1, ent(2, 1)))
	f.Add(slices.Concat([]byte{0}, agree,
		op(3, 1, 0, 1), op(3, 1, 0, 1), // the same bit in two bitmaps
		op(3, 2, 0, 1),
		op(3, 3, 0, 1), op(0, 3, 0, 1, ent(2, 1)), // a bitmap ahead of its bundle, which makes n-t
	))
	f.Add(slices.Concat([]byte{0},
		op(0, 1, 0, 2, ent(2, 1), ent(2, 2)), op(0, 2, 0, 1, ent(2, 1)), // sender 1 repeats K2 at 1/2
		op(3, 2, 0, 1),
		op(3, 1, 0, 3), // a bit on the repeat after one for u: the vote is cast
	))
	f.Add(slices.Concat([]byte{0}, agree,
		op(3, 1, 0, 1), op(3, 2, 0, 1),
		op(4, 1, 0, ent(2, 2)), // an Echo2 entry from a sender whose bitmap voted
	))
	f.Add(slices.Concat([]byte{1},
		op(0, 1, 0, 1, ent(2, 1)),
		op(3, 2, 0, 1), op(3, 2, 0, 1), op(0, 2, 0, 1, ent(2, 1)), // merged ahead of the bundle
		op(3, 1, 0, 1),
		op(0, 3, 0, 1, ent(2, 2)),   // a disagreeing bundle vote after two bitmap votes
		op(0, 4, 0, 0), op(2, 4, 0), // an implicit zero, then its zeros bundle
		op(3, 3, 0, 1), op(3, 5, 0, 1),
	))
	f.Add(slices.Concat([]byte{0},
		op(0, 1, 0, 1, ent(3, 0)), op(0, 2, 0, 1, ent(3, 0)),
		op(3, 1, 0, 1), // a bitmap vote for u = 0 (zeros bundles count those)
	))
	// Quiet rounds: unchanged round-2 bundles (kind 6, control byte 0) from
	// senders 1..3, whose round-1 bundles list K2 (at 1 unless said otherwise).
	at1 := func(from byte) []byte { return op(0, from, 0, 1, ent(2, 1)) }
	same := func(from byte) []byte { return op(6, from, 0, 0) }
	f.Add(slices.Concat([]byte{0}, at1(1), at1(2), at1(3),
		op(4, 1, 1, ent(2, 1)), // an explicit ECHO2 materialises K2's round-2 tally first
		same(1), same(2), same(3),
	))
	f.Add(slices.Concat([]byte{0},
		op(0, 1, 0, 2, ent(2, 1), ent(2, 2)), at1(2), at1(3), // sender 1 lists K2 twice
		same(2), same(1),
	))
	f.Add(slices.Concat([]byte{0}, at1(1), at1(2), at1(3),
		same(1), same(2),
		op(4, 3, 1, ent(2, 1)), // K2's round-2 tally materialises after a skipped bundle
		same(3),
	))
	f.Add(slices.Concat([]byte{0}, at1(1), op(0, 2, 0, 1, ent(2, 2)), at1(3), // sender 2 votes K2 1/2
		same(1), same(2),
	))
	// A compressed bundle ahead of its base, a moved and an escaped entry, a
	// new entry.
	f.Add(slices.Concat([]byte{1}, same(1), at1(1), at1(2), op(0, 3, 0, 2, ent(2, 1), ent(3, 2)),
		op(6, 2, 0, 0x80|symL), op(6, 3, 0, 0x90|symX, ent(0, 6)), op(6, 4, 0, 8, ent(4, 1)),
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := Config{Config: node.Config{N: 4, F: 1}, Rounds: 4}
		if data[0]&1 == 1 {
			cfg.Config = node.Config{N: 7, F: 2}
		}
		e, err := NewEngine(cfg, map[IID]float64{{K: 0}: 1, {K: 1}: 0.5}, func(map[IID]float64) {})
		if err != nil {
			t.Fatal(err)
		}
		e.Start(&SinkEnv{Nodes: cfg.N, Faults: cfg.F})
		o := &oracle{n: cfg.N, bundles: map[senderRound][]IVal{}, zeros: map[senderRound]bool{},
			explicit: map[explicitKey]float64{}, bits: map[senderRound][]byte{}, pendingC: map[senderRound]*Echo1C{}}
		s := &fuzzStream{data: data[1:]}
		for step := 0; step < 64 && !e.done; step++ {
			op, ok := s.next()
			if !ok {
				return
			}
			from := node.ID(int(op>>3) % cfg.N)
			var ms []node.Message
			switch op & 7 {
			case 0: // bundle
				r := s.round(cfg.Rounds)
				k, _ := s.next()
				m := &Echo1{Round: uint16(r), Init: true}
				for i := 0; i < int(k)%5; i++ {
					m.Vals = append(m.Vals, s.entry(r))
				}
				ms = append(ms, m)
			case 1: // amplification echo
				ms = append(ms, &Echo1{Vals: []IVal{s.entry(s.round(cfg.Rounds))}})
			case 2: // zeros bundle
				ms = append(ms, &Echo2{Round: uint16(s.round(cfg.Rounds)), Zeros: true})
			case 3: // bitmap
				r := s.round(cfg.Rounds)
				b, _ := s.next()
				ms = append(ms, &Echo2C{Round: uint16(r), Bits: []byte{b}})
			case 4: // explicit ECHO2
				ms = append(ms, &Echo2{Vals: []IVal{s.entry(s.round(cfg.Rounds))}})
			case 6: // compressed bundle against the sender's recorded previous bundle
				r := 1 + s.round(cfg.Rounds-1)
				m := &Echo1C{Round: uint16(r), PrevCount: uint16(len(o.bundles[senderRound{from, r - 1}]))}
				c, _ := s.next()
				syms := make([]uint8, m.PrevCount)
				if c&0x80 != 0 && len(syms) > 0 { // one symbol; an escape carries an entry's value
					syms[int(c>>4&7)%len(syms)] = c & 7
					if c&7 == symX {
						m.Escapes = []float64{s.entry(r).V}
					}
				}
				if c&8 != 0 {
					m.NewVals = []IVal{s.entry(r)}
				}
				m.Deltas = packNibbles(syms)
				ms = append(ms, m)
			default: // sweep the current round from n-t senders
				r := e.round
				for i := 0; i < cfg.Quorum(); i++ {
					ms = append(ms, &Echo1{Round: uint16(r), Init: true})
				}
				for i := 0; i < cfg.Quorum(); i++ {
					ms = append(ms, &Echo2{Round: uint16(r), Zeros: true})
				}
			}
			for i, m := range ms {
				if e.done {
					return
				}
				sender := from
				if op&7 == 5 || op&7 == 7 {
					sender = node.ID((int(from) + i%cfg.Quorum()) % cfg.N)
				}
				o.deliver(e.round, cfg.Rounds, sender, m)
				switch msg := m.(type) {
				case *Echo1:
					e.HandleEcho1(sender, msg)
				case *Echo2:
					e.HandleEcho2(sender, msg)
				case *Echo2C:
					e.HandleEcho2C(sender, msg)
				case *Echo1C:
					e.HandleEcho1C(sender, msg)
				}
				o.check(t, e)
			}
		}
	})
}
