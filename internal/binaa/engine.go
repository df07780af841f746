package binaa

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"delphi/internal/node"
	"delphi/internal/obs"
)

// Config parameterises a BinAA engine.
type Config struct {
	// Config supplies n and t.
	node.Config
	// Rounds is r_M, the number of BV-broadcast rounds to run. The final
	// per-instance weights are exact multiples of 2^-Rounds, so honest
	// weights differ by at most 2^-Rounds (the ε' of Algorithm 2).
	Rounds int
	// DisableCompression turns off the §II-C delta/bitmap round encoding
	// (full (instance, value) entries every round). Kept for the
	// communication ablation; compression is on by default.
	DisableCompression bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if c.Rounds < 1 || c.Rounds > 60 { // 60: float64 dyadic precision
		return fmt.Errorf("binaa: rounds must be in [1, 60], got %d", c.Rounds)
	}
	return nil
}

// Engine runs the full set of bundled BinAA instances for one agreement.
// It is driven through its four Handle methods, one per wire type, by an
// embedding protocol (internal/core's Delphi).
type Engine struct {
	cfg    Config
	env    node.Env
	onDone func(weights map[IID]float64)

	// track and roundAt feed per-round trace spans; both stay zero when
	// observability is disabled.
	track   *obs.Track
	roundAt int64

	round int // current round, 1-based
	done  bool
	// insts resolves an instance named on the wire; instList holds the same
	// instances in activation order (inst.idx is the position), for iteration
	// and index references without hashing (whole-set loops commute).
	insts    map[IID]*inst
	instList []*inst

	// rs[r-1] is round r's bookkeeping; grown on demand.
	rs []round

	// Staged outgoing echoes for the current step (the compact ECHO2 bitmaps
	// are staged per round, round.pendE2CB).
	pendAmp, pendE2 []IVal
	// dirty lists the (instance, round) pairs whose state machine must be
	// re-run: a pair is marked only when one of its vote counts lands
	// exactly on a threshold check acts on (t+1 or n-t ECHO1s, n-t ECHO2s),
	// or when its round opens — an implicit tally only if it is due. Every
	// action in check is a monotone threshold test, so a vote that crosses
	// nothing cannot enable one. The per-round dirty flag deduplicates, and
	// the packed key orders the drain deterministically by (round, level, K).
	// spare is the drained buffer, swapped back in so settle allocates nothing.
	dirty, spare []dirtyEntry
	// gen and stamps mark the members of the bundle being applied: stamps[idx]
	// is gen once the bundle has listed the instance, so a repeat is skipped.
	gen    uint64
	stamps []uint64
}

// round is the engine's bookkeeping for one round.
type round struct {
	// initBundles holds each sender's (reconstructed) round announcement,
	// indexed by sender: instances listed — with any value, zero included —
	// voted explicitly; everything else implicitly voted 0. A stored bundle is
	// the engine's own slice, never a message's. It stays until its round is
	// left and its successor has arrived: applyCompressed builds that in it
	// and nils the slot. initSeen marks the senders whose bundle has arrived
	// (a present bundle may be an empty list), and clean those whose bundle
	// changed no tally; initZeros counts initSeen ∩ zerosSenders, an implicit
	// 0's ECHO2s. quiet is condition (3) of the package comment's quiet rounds.
	initBundles                      [][]entry
	initSeen, clean, zerosSenders    node.Set
	quiet                            bool
	initCount, zerosCount, initZeros int
	// bitVoters is the voter slab: the node.SetWords(n) words from
	// idx·node.SetWords(n) hold the senders behind instance idx's instRound.e2.
	bitVoters node.Set
	// insts[idx] is instance idx's state in this round, for all instList.
	insts []instRound
	// Compression state: this node's own announcement in canonical append
	// order (instRound.annPos is the reverse index); per sender, a compressed
	// bundle buffered until its base round arrives and the merged bitmaps
	// buffered until their bundle does; and the staged compact ECHO2 bitmap
	// (nil when nothing is staged).
	announced  []entry
	pendingC   []*Echo1C
	pendingE2C [][]byte
	pendE2CB   []byte
}

// entry is one element of a round announcement: ref, 1 + the instance's
// position in Engine.instList (resolved, activating the instance, as the
// bundle is built), and the announced value. It has no pointer, so the
// bundles (the engine's largest retained state) cost the collector nothing
// to scan.
type entry struct {
	ref uint32
	v   float64
}

type dirtyEntry struct {
	key uint64
	x   *inst
}

// sortDirty orders entries by packed key. A drain is a handful of entries
// per delivered message, where a direct insertion sort beats the generic
// comparator-closure sort by a wide margin. A round advance re-marks every
// instance in activation order, and a Byzantine sender chooses the order
// (and number) of late activations, so large drains go to SortFunc, which is
// linear on the honest near-sorted case and n·log n on any other.
func sortDirty(entries []dirtyEntry) {
	if len(entries) > 32 {
		slices.SortFunc(entries, func(a, b dirtyEntry) int { return cmp.Compare(a.key, b.key) })
		return
	}
	for i := 1; i < len(entries); i++ {
		e := entries[i]
		j := i - 1
		for j >= 0 && entries[j].key > e.key {
			entries[j+1] = entries[j]
			j--
		}
		entries[j+1] = e
	}
}

// dirtyKey packs (round, instance) so that ascending uint64 order equals
// the engine's deterministic (round, level, K) processing order. K's sign
// bit is flipped to map int32 ordering onto uint32 ordering.
func dirtyKey(id IID, r int) uint64 {
	return uint64(r)<<40 | uint64(id.Level)<<32 | uint64(uint32(id.K)^0x80000000)
}

// NewEngine creates an engine with the node's non-zero inputs. An input of
// 1 at instance X corresponds to Algorithm 2 line 11; inputs strictly
// between 0 and 1 are permitted (they arise in tests).
func NewEngine(cfg Config, inputs map[IID]float64, onDone func(map[IID]float64)) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if onDone == nil {
		return nil, fmt.Errorf("binaa: onDone callback required")
	}
	e := &Engine{cfg: cfg, onDone: onDone, insts: make(map[IID]*inst)}
	for id, v := range inputs {
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("binaa: input %v=%g outside [0,1]", id, v)
		}
		if v != 0 {
			e.newInst(id, v)
		}
	}
	// Seed instList in sorted (level, K) order, not input-map order: every
	// later activation appends in deterministic message order, and whole-set
	// loops over instList stage broadcasts — map order here is the same
	// schedule-nondeterminism class as the aba.OnCoin map walk, merely
	// masked today by downstream sorting.
	sortInsts(e.instList)
	for i, x := range e.instList {
		x.idx = uint32(i)
	}
	return e, nil
}

// Start begins round 1. Call exactly once, after the environment is ready.
func (e *Engine) Start(env node.Env) {
	e.env = env
	e.track = node.TrackOf(env)
	e.roundAt = e.track.Now()
	e.round = 1
	e.openRound(1)
	e.flush()
}

// newInst registers an instance at the end of instList.
func (e *Engine) newInst(id IID, state float64) *inst {
	x := &inst{id: id, idx: uint32(len(e.instList)), state: state}
	e.insts[id] = x
	e.instList = append(e.instList, x)
	e.stamps = append(e.stamps, 0)
	return x
}

// grow ensures rs covers round r.
func (e *Engine) grow(r int) {
	n, w := e.cfg.N, node.SetWords(e.cfg.N)
	for len(e.rs) < r {
		s := make(node.Set, 3*w) // one allocation for the round's sender sets
		e.rs = append(e.rs, round{initBundles: make([][]entry, n), initSeen: s[:w:w], clean: s[w : 2*w : 2*w],
			zerosSenders: s[2*w:], bitVoters: make(node.Set, len(e.instList)*w), insts: make([]instRound, len(e.instList)),
			pendingC: make([]*Echo1C, n), pendingE2C: make([][]byte, n)})
	}
}

// openRound broadcasts this node's round-opening bundle for round r: a full
// entry list in round 1 (and always when compression is off), a compressed
// delta bundle afterwards.
func (e *Engine) openRound(r int) {
	e.grow(r)
	// Mark per-instance round state (my init vote and self-echo).
	row := e.rs[r-1].insts
	for i, x := range e.instList {
		ir := &row[i]
		ir.myInit, ir.opened = x.state, true
		if !plain(x.state) {
			e.materialise(ir, r, x.idx)
		}
		if ir.t != nil {
			ir.t.echo1.slot(x.state, e.cfg.N).amped = true
		}
	}
	// Build this round's announcement in canonical append order: previous
	// announcement first, newly active instances (sorted) appended.
	var prev []entry
	if r > 1 {
		prev = e.rs[r-2].announced
	}
	ann := make([]entry, 0, len(e.instList))
	for _, p := range prev {
		ann = append(ann, entry{ref: p.ref, v: e.instList[p.ref-1].state})
	}
	var fresh []*inst
	for i, x := range e.instList {
		if r == 1 || e.rs[r-2].insts[i].annPos == 0 {
			fresh = append(fresh, x)
		}
	}
	sortInsts(fresh)
	for _, x := range fresh {
		ann = append(ann, entry{ref: x.idx + 1, v: x.state})
	}
	full := e.cfg.DisableCompression || r == 1
	if full {
		// Full bundle: transmit only non-zero entries (implicit zeros cover
		// the rest). Receivers reconstruct announcements from transmitted
		// entries, so the announcement must equal the transmitted list.
		nz := ann[:0]
		for _, a := range ann {
			if a.v != 0 {
				nz = append(nz, a)
			}
		}
		ann = nz
	}
	e.rs[r-1].announced = ann
	for i, a := range ann {
		row[a.ref-1].annPos = int32(i + 1)
	}
	if full {
		e.env.Broadcast(&Echo1{Round: uint16(r), Init: true, Vals: e.wireVals(ann, r)})
		return
	}

	// Compressed bundle relative to the previous announcement.
	syms := make([]uint8, len(prev))
	var escapes []float64
	for i, p := range prev {
		sym, ok := deltaSymbol(p.v, ann[i].v, r)
		if !ok {
			sym = symX
			escapes = append(escapes, ann[i].v)
		}
		syms[i] = sym
	}
	e.env.Broadcast(&Echo1C{
		Round:     uint16(r),
		PrevCount: uint16(len(prev)),
		Deltas:    packNibbles(syms),
		Escapes:   escapes,
		NewVals:   e.wireVals(ann[len(prev):], r),
	})
}

// wireVals renders announcement entries as round-r wire entries.
func (e *Engine) wireVals(ann []entry, r int) []IVal {
	vals := make([]IVal, len(ann))
	for i, a := range ann {
		vals[i] = IVal{ID: e.instList[a.ref-1].id, Round: uint16(r), V: a.v}
	}
	return vals
}

// sortInsts orders instances by (level, K).
func sortInsts(xs []*inst) {
	slices.SortFunc(xs, func(a, b *inst) int { return cmp.Compare(dirtyKey(a.id, 0), dirtyKey(b.id, 0)) })
}

// validRound bounds rounds accepted from the wire.
func (e *Engine) validRound(r int) bool { return r >= 1 && r <= e.cfg.Rounds }

// crossed1 reports whether an ECHO1 count just landed on t+1 or n-t.
func (e *Engine) crossed1(count int) bool { return count == e.cfg.F+1 || count == e.cfg.Quorum() }

// HandleEcho1 processes an Echo1 message.
func (e *Engine) HandleEcho1(from node.ID, m *Echo1) {
	if e.done {
		return
	}
	if m.Init {
		r := int(m.Round)
		if !e.validRound(r) {
			return
		}
		e.grow(r)
		if e.rs[r-1].initSeen.Has(from) {
			return // equivocating bundle: first wins
		}
		b := make([]entry, 0, len(m.Vals))
		for _, v := range m.Vals {
			if int(v.Round) == r {
				b = append(b, entry{ref: e.activate(v.ID).idx + 1, v: v.V})
			}
		}
		e.applyBundle(from, r, b, false)
	} else {
		for _, v := range m.Vals {
			r := int(v.Round)
			if !e.validRound(r) {
				continue
			}
			e.grow(r)
			x := e.activate(v.ID)
			if ir := &e.rs[r-1].insts[x.idx]; ir.t == nil && v.V == ir.u && e.rs[r-1].initSeen.Has(from) {
				continue // a repeat of the sender's bundle vote
			}
			if e.crossed1(e.materialise(&e.rs[r-1].insts[x.idx], r, x.idx).echo1.add(from, v.V, e.cfg.N)) {
				e.mark(x, r)
			}
		}
	}
	e.settle()
}

// applyBundle records a sender's round announcement — the caller has checked
// it is the sender's first for round r, and resolved every entry — and
// applies its explicit and implicit votes, those an implicit tally agrees
// with through initCount alone. It takes ownership of b. same reports that b
// is the sender's round-(r-1) bundle unchanged; in a quiet round, such a
// bundle from a clean sender is u at every instance and is only recorded. It
// then drains any buffered compressed bundle and bitmap that were waiting for
// this round.
func (e *Engine) applyBundle(from node.ID, r int, b []entry, same bool) {
	rd, base := &e.rs[r-1], same && e.rs[r-2].clean.Has(from) // same is false in round 1
	// The votes go first and the sender is recorded after them, so that a
	// tally they materialise is rebuilt without the sender.
	clean := base && rd.quiet
	if !clean {
		clean = true
		e.gen++
		row, listed := rd.insts, 0
		for _, a := range b {
			if e.stamps[a.ref-1] == e.gen {
				clean = false
				continue // a repeated listing: the first wins
			}
			e.stamps[a.ref-1] = e.gen
			listed++
			// An implicit tally absorbs a vote for u (any plain one, first bundle).
			if ir := &row[a.ref-1]; ir.t == nil && plain(a.v) && (a.v == ir.u || rd.initCount == 0) {
				ir.u = a.v
			} else {
				clean = false
				e.applyInitVote(a.ref-1, r, from, a.v)
			}
		}
		for i := 0; listed < len(row) && i < len(row); i++ {
			if e.stamps[i] != e.gen && (row[i].t != nil || row[i].u != 0) {
				clean = false
				e.applyInitVote(uint32(i), r, from, 0)
			}
		}
	}
	if clean {
		rd.clean.Add(from)
	}
	if rd.initCount == 0 {
		rd.quiet = base && clean
	}
	rd.initSeen.Add(from)
	rd.initBundles[from] = b
	rd.initCount++
	zeros := rd.zerosSenders.Has(from)
	if zeros {
		rd.initZeros++
	}
	if e.crossed1(rd.initCount) || zeros && rd.initZeros == e.cfg.Quorum() {
		e.markDue(r, false)
	}
	if rd.initCount == e.cfg.Quorum() {
		// n-t init bundles: send the implicit ECHO2(0) bundle for round r.
		e.env.Broadcast(&Echo2{Round: uint16(r), Zeros: true})
	}
	// A compressed bundle for r+1 may have been waiting for this base.
	if r < len(e.rs) && e.rs[r].pendingC[from] != nil {
		next := e.rs[r].pendingC[from]
		e.rs[r].pendingC[from] = nil
		e.applyCompressed(from, next)
	}
	// So may the sender's bitmaps, merged; they count while round r is read.
	if r >= e.round {
		e.applyEcho2C(from, r, rd.pendingE2C[from])
	}
}

// HandleEcho1C processes a compressed round-opening bundle.
func (e *Engine) HandleEcho1C(from node.ID, m *Echo1C) {
	if e.done {
		return
	}
	r := int(m.Round)
	if !e.validRound(r) || r < 2 {
		return
	}
	e.grow(r)
	if e.rs[r-1].initSeen.Has(from) {
		return
	}
	if !e.rs[r-2].initSeen.Has(from) {
		// Base round not yet seen: buffer (keep the first only).
		if e.rs[r-1].pendingC[from] == nil {
			e.rs[r-1].pendingC[from] = m
		}
		return
	}
	e.applyCompressed(from, m)
	e.settle()
}

// applyCompressed reconstructs a compressed bundle against the sender's
// previous announcement and applies it. A malformed bundle is dropped before
// any engine state is touched. A base bundle whose round the engine has left
// has no reader any more and becomes the new bundle in place; one whose round
// is current or ahead may still meet its bitmap or zeros bundle, and is copied.
func (e *Engine) applyCompressed(from node.ID, m *Echo1C) {
	r := int(m.Round)
	prev := e.rs[r-2].initBundles[from]
	if e.rs[r-1].initSeen.Has(from) || len(prev) != int(m.PrevCount) || len(m.Deltas) < (len(prev)+1)/2 {
		return // a full bundle overtook this one, or malformed relative to our view: drop
	}
	// Byte j of the deltas holds entries 2j and 2j+1 (the last byte's high
	// nibble is padding when len(prev) is odd). A zero byte is two symC
	// entries, which need no check and no write.
	deltas, esc, same := m.Deltas[:(len(prev)+1)/2], 0, len(m.NewVals) == 0
	for j, d := range deltas {
		same = same && d == 0
		for k := 2 * j; d != 0 && k < len(prev); k, d = k+1, d>>4 {
			if sym := d & 0x0f; sym == symX {
				esc++
			} else if sym > sym2R {
				return // unknown symbol
			}
		}
	}
	if esc > len(m.Escapes) {
		return // malformed escape list
	}
	b := prev
	if r-1 < e.round {
		e.rs[r-2].initBundles[from] = nil
	} else {
		b = append(make([]entry, 0, len(prev)+len(m.NewVals)), prev...)
	}
	esc = 0
	for j, d := range deltas {
		for k := 2 * j; d != 0 && k < len(prev); k, d = k+1, d>>4 {
			if sym := d & 0x0f; sym == symX {
				b[k].v = m.Escapes[esc]
				esc++
			} else {
				b[k].v = applySymbol(b[k].v, sym, r)
			}
		}
	}
	for _, nv := range m.NewVals {
		b = append(b, entry{ref: e.activate(nv.ID).idx + 1, v: nv.V})
	}
	e.applyBundle(from, r, b, same)
}

// HandleEcho2C processes a compact ECHO2 bitmap.
func (e *Engine) HandleEcho2C(from node.ID, m *Echo2C) {
	r := int(m.Round)
	if e.done || !e.validRound(r) || r < e.round {
		return // nothing reads a left round's ECHO2s
	}
	e.grow(r)
	if !e.rs[r-1].initSeen.Has(from) {
		// Bitmaps are incremental: merge (into our own bytes), not keep-first.
		merged := e.rs[r-1].pendingE2C[from]
		merged = append(merged, make([]byte, max(0, len(m.Bits)-len(merged)))...)
		for i, b := range m.Bits {
			merged[i] |= b
		}
		e.rs[r-1].pendingE2C[from] = merged
		return
	}
	e.applyEcho2C(from, r, m.Bits)
	e.settle()
}

// applyEcho2C resolves bitmap bits against the sender's round announcement.
// An implicit tally counts a vote for its u ≠ 0 in its voter slab words.
func (e *Engine) applyEcho2C(from node.ID, r int, bitmap []byte) {
	b, words := e.rs[r-1].initBundles[from], node.SetWords(e.cfg.N)
	for j, w := range bitmap {
		for ; w != 0; w &= w - 1 { // set bits only, in ascending order
			i := 8*j + bits.TrailingZeros8(w)
			if i >= len(b) {
				return
			}
			a, c := b[i], 0
			if ir := &e.rs[r-1].insts[a.ref-1]; ir.t == nil && ir.u != 0 && a.v == ir.u {
				if node.Set(e.rs[r-1].bitVoters[int(a.ref-1)*words:]).Add(from) {
					ir.e2++
					c = int(ir.e2)
				}
			} else {
				c = e.materialise(ir, r, a.ref-1).addEcho2(from, a.v, true, e.cfg.N)
			}
			if c == e.cfg.Quorum() {
				e.mark(e.instList[a.ref-1], r)
			}
		}
	}
}

// HandleEcho2 processes an Echo2 message. Votes for a round the engine has
// left are dropped (see the package comment); their instances still activate.
func (e *Engine) HandleEcho2(from node.ID, m *Echo2) {
	if e.done {
		return
	}
	if r := int(m.Round); m.Zeros && e.validRound(r) && r >= e.round {
		e.grow(r)
		if rd := &e.rs[r-1]; rd.zerosSenders.Add(from) {
			rd.zerosCount++
			// The implicit zero goes to every instance the sender's bundle
			// voted 0 for, to implicit tallies via initZeros; until the bundle
			// arrives, applyInitVote does.
			if rd.initSeen.Has(from) {
				if rd.initZeros++; rd.initZeros == e.cfg.Quorum() {
					e.markDue(r, false)
				}
				row := rd.insts
				for i := range row {
					if t := row[i].t; t != nil && t.zeroFrom.Has(from) &&
						t.addEcho2(from, 0, false, e.cfg.N) == e.cfg.Quorum() {
						e.mark(e.instList[i], r)
					}
				}
			}
		}
	}
	for _, v := range m.Vals {
		r := int(v.Round)
		if !e.validRound(r) {
			continue
		}
		e.grow(r)
		x := e.activate(v.ID) // even for a left round: it joins our next announcement
		if r >= e.round && e.materialise(&e.rs[r-1].insts[x.idx], r, x.idx).addEcho2(from, v.V, true, e.cfg.N) == e.cfg.Quorum() {
			e.mark(x, r)
		}
	}
	e.settle()
}

// applyInitVote applies sender's init-slot ECHO1 vote for instance i in
// round r, and the sender's pending zeros-bundle ECHO2 if the vote was zero,
// to a tally it materialises. Each (instance, sender, round) gets here once:
// initSeen admits one bundle and applyBundle skips repeated listings.
func (e *Engine) applyInitVote(i uint32, r int, from node.ID, v float64) {
	t := e.materialise(&e.rs[r-1].insts[i], r, i)
	crossed := e.crossed1(t.echo1.add(from, v, e.cfg.N))
	if v == 0 {
		t.zeroFrom.Add(from)
		if e.rs[r-1].zerosSenders.Has(from) && t.addEcho2(from, 0, false, e.cfg.N) == e.cfg.Quorum() {
			crossed = true
		}
	}
	if crossed {
		e.mark(e.instList[i], r)
	}
}

// materialise returns ir's explicit tally. An implicit one (instance i in
// round r) is first given the tally it stands for, copied a word at a time
// from the round's sender sets and its voter slab words.
func (e *Engine) materialise(ir *instRound, r int, i uint32) *tally {
	if ir.t != nil {
		return ir.t
	}
	n := e.cfg.N
	w := node.SetWords(n)
	b := make(node.Set, 5*w)
	t := &tally{echo2From: b[:w:w], echo2Explicit: b[w : 2*w : 2*w], zeroFrom: b[2*w : 3*w : 3*w]}
	t.echo1 = votes{sets: t.sets[:0:1], spare: b[3*w : 4*w : 4*w]}
	t.echo2 = votes{sets: t.sets[1:1], spare: b[4*w:]}
	rd := &e.rs[r-1]
	rd.quiet = false // condition (3): the round's tallies move
	seen, zeros := rd.initSeen, rd.zerosSenders
	if c := rd.initCount; c > 0 {
		s := t.echo1.slot(ir.u, n)
		copy(s.set, seen)
		s.count = c
	}
	c := int(ir.e2)
	if ir.u == 0 {
		copy(t.zeroFrom, seen)
		for j := range zeros {
			t.echo2From[j] = seen[j] & zeros[j]
		}
		c = rd.initZeros
	} else {
		copy(t.echo2From, rd.bitVoters[int(i)*w:])
		copy(t.echo2Explicit, t.echo2From)
	}
	if c > 0 {
		s := t.echo2.slot(ir.u, n)
		copy(s.set, t.echo2From)
		s.count = c
	}
	if ir.opened {
		t.echo1.slot(ir.myInit, n).amped = true
	}
	if ir.ampedU {
		t.echo1.slot(ir.u, n).amped = true
	}
	ir.t = t
	return t
}

// activate returns the instance, creating it on first mention. Every bundle
// recorded so far voted an implicit 0 for it (recording a bundle activates
// everything the bundle lists), so it starts implicit at 0 in every round,
// marked where those votes have passed a threshold. Late-activated instances
// join with state 0 — the value this node's implicit votes have already cast,
// so it echoed 0 in every round it has opened and must not re-amplify it.
func (e *Engine) activate(id IID) *inst {
	if x, ok := e.insts[id]; ok {
		return x
	}
	x := e.newInst(id, 0)
	for r := 1; r <= len(e.rs); r++ {
		rd := &e.rs[r-1]
		rd.insts = append(rd.insts, instRound{opened: r <= e.round})
		rd.bitVoters = append(rd.bitVoters, make(node.Set, node.SetWords(e.cfg.N))...)
		if e.due(&rd.insts[x.idx], r) {
			e.mark(x, r)
		}
	}
	return x
}

// mark queues (x, r) for re-checking; the instRound's dirty flag makes
// repeated marks free.
func (e *Engine) mark(x *inst, r int) {
	if ir := &e.rs[r-1].insts[x.idx]; !ir.dirty {
		ir.dirty = true
		e.dirty = append(e.dirty, dirtyEntry{key: dirtyKey(x.id, r), x: x})
	}
}

// markDue marks round r's implicit tallies that are due, after a count they
// share has landed on a threshold, and with all set every materialised one.
func (e *Engine) markDue(r int, all bool) {
	for i := range e.rs[r-1].insts {
		if ir := &e.rs[r-1].insts[i]; ir.t != nil && all || ir.t == nil && e.due(ir, r) {
			e.mark(e.instList[i], r)
		}
	}
}

// due reports whether check has an action left on ir, an implicit tally of
// round r: amplifying u, sending the round's ECHO2, or deciding u (check's
// tests on an implicit tally, one for one).
func (e *Engine) due(ir *instRound, r int) bool {
	c, q := e.rs[r-1].initCount, e.cfg.Quorum()
	return c > e.cfg.F && !ir.ampedU && !(ir.opened && ir.myInit == ir.u) ||
		c >= q && !ir.sentEcho2 && r <= e.round ||
		!ir.decided && (ir.u == 0 && e.rs[r-1].initZeros >= q || ir.u != 0 && int(ir.e2) >= q)
}

// settle processes all dirty (instance, round) pairs: amplification, ECHO2
// emission, decisions, and round advancement; then flushes staged sends.
func (e *Engine) settle() {
	quorum := e.cfg.Quorum()
	for {
		for len(e.dirty) > 0 {
			// Swap in the spare buffer before draining, so marks made while
			// draining land in the next pass.
			entries := e.dirty
			e.dirty = e.spare[:0]
			// Deterministic processing order: packed keys sort (r, level, K).
			sortDirty(entries)
			for _, en := range entries {
				e.check(en.x, int(en.key>>40), quorum)
			}
			e.spare = entries
		}
		if !e.tryAdvance() {
			break
		}
	}
	e.flush()
}

// check runs the per-round state machine for one instance.
func (e *Engine) check(x *inst, r int, quorum int) {
	rd := &e.rs[r-1]
	ir := &rd.insts[x.idx]
	ir.dirty = false
	// Amplification: echo any value with t+1 support that we haven't echoed,
	// in ascending order of value. An implicit tally has one value, u, amped
	// already if it is our own init vote.
	if ir.t == nil && rd.initCount > e.cfg.F && !ir.ampedU && !(ir.opened && ir.myInit == ir.u) {
		ir.ampedU = true
		e.pendAmp = append(e.pendAmp, IVal{ID: x.id, Round: uint16(r), V: ir.u})
	}
	for t := ir.t; t != nil; {
		var next *voteSet
		for i := range t.echo1.sets {
			if s := &t.echo1.sets[i]; s.count >= e.cfg.F+1 && !s.amped && (next == nil || s.v < next.v) {
				next = s
			}
		}
		if next == nil {
			break
		}
		next.amped = true
		e.pendAmp = append(e.pendAmp, IVal{ID: x.id, Round: uint16(r), V: next.v})
	}
	// ECHO2: the smallest value with n-t ECHO1s, once per round. Deferred
	// for rounds we have not opened yet (myInit is unknown until then); the
	// round-opening path re-marks every instance on which check may act.
	if !ir.sentEcho2 && r <= e.round {
		v, ok := ir.u, ir.t == nil && rd.initCount >= quorum // an implicit tally's one value
		for i := 0; ir.t != nil && i < len(ir.t.echo1.sets); i++ {
			if s := &ir.t.echo1.sets[i]; s.count >= quorum && (!ok || s.v < v) {
				v, ok = s.v, true
			}
		}
		if ok {
			ir.sentEcho2 = true
			switch {
			case v == 0 && rd.initCount >= quorum && ir.myInit == 0:
				// Our zeros bundle, sent on n-t init bundles, covers this
				// instance (receivers apply zeros only where our announced
				// init vote was 0).
			case !e.cfg.DisableCompression && v == ir.myInit && ir.annPos > 0:
				// Vote value equals our announced value: one bitmap bit.
				rd.pendE2CB = setBit(rd.pendE2CB, int(ir.annPos)-1)
			default:
				e.pendE2 = append(e.pendE2, IVal{ID: x.id, Round: uint16(r), V: v})
			}
		}
	}
	ir.tryDecide(quorum, rd.initZeros)
}

// tryAdvance moves the engine to the next round once the current round has
// decided at every active instance, and completes after cfg.Rounds rounds.
// It reports whether it made progress (so settle can re-drain dirty state).
func (e *Engine) tryAdvance() bool {
	if e.done {
		return false
	}
	// A round completes only once n-t init bundles and n-t zeros bundles
	// for it have arrived — these are the implicit votes that decide every
	// quiet (all-zero) checkpoint — and every active instance has decided.
	if len(e.rs) < e.round ||
		e.rs[e.round-1].initCount < e.cfg.Quorum() ||
		e.rs[e.round-1].zerosCount < e.cfg.Quorum() {
		return false
	}
	row := e.rs[e.round-1].insts
	for i := range row {
		if !row[i].decided {
			return false
		}
	}
	// Adopt decisions as next-round states.
	for i, x := range e.instList {
		x.state = row[i].decision
	}
	e.track.Span("binaa.round", e.roundAt, int64(e.round), int64(len(e.instList)))
	e.roundAt = e.track.Now()
	if e.round >= e.cfg.Rounds {
		e.done = true
		e.track.Instant("binaa.done", int64(e.round), int64(len(e.instList)))
		// The final weights: instances never mentioned by anyone have
		// weight 0 and are omitted.
		out := make(map[IID]float64, len(e.instList))
		for _, x := range e.instList {
			if x.state != 0 {
				out[x.id] = x.state
			}
		}
		e.onDone(out)
		return false
	}
	e.round++
	e.openRound(e.round)
	// Early-arrived votes may already decide the new round, and ECHO2s
	// deferred until the round opened are now due; re-check all that may act.
	e.markDue(e.round, true)
	return true
}

// flush broadcasts staged amplification and ECHO2 entries as bundles, the
// compact bitmaps in ascending round order.
func (e *Engine) flush() {
	if vals := e.pendAmp; len(vals) > 0 {
		e.pendAmp = nil
		e.env.Broadcast(&Echo1{Vals: vals})
	}
	if vals := e.pendE2; len(vals) > 0 {
		e.pendE2 = nil
		e.env.Broadcast(&Echo2{Vals: vals})
	}
	for i := range e.rs {
		if bits := e.rs[i].pendE2CB; bits != nil {
			e.rs[i].pendE2CB = nil
			e.env.Broadcast(&Echo2C{Round: uint16(i + 1), Bits: bits})
		}
	}
}
