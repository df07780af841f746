package binaa

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"delphi/internal/node"
)

// SinkEnv is an environment that swallows everything an engine emits and
// counts the sends, for driving an Engine directly (exported to the external
// test package).
type SinkEnv struct {
	Nodes, Faults int
	Sends         int
}

func (e *SinkEnv) Self() node.ID                  { return 0 }
func (e *SinkEnv) N() int                         { return e.Nodes }
func (e *SinkEnv) F() int                         { return e.Faults }
func (e *SinkEnv) Send(node.ID, node.Message)     { e.Sends++ }
func (e *SinkEnv) Broadcast(node.Message)         { e.Sends++ }
func (e *SinkEnv) Output(any)                     {}
func (e *SinkEnv) Halt()                          {}
func (e *SinkEnv) ChargeCompute(node.ComputeCost) {}

// fuzzSender is the peer whose bundles the fuzz targets forge; fuzzPrev is
// the length of its genuine round-1 announcement.
const (
	fuzzSender = node.ID(1)
	fuzzPrev   = 5
)

// fuzzEngine returns a started n=4 engine that holds fuzzSender's round-1
// announcement of fuzzPrev entries — the base a round-2 compressed bundle
// is reconstructed against. With left set, all three peers have announced
// and ECHO2'd the same values and sent their zeros bundles, so the engine
// stands in round 2 and the base round is behind it: the bundle is then
// rebuilt in the stored base, not in a copy.
func fuzzEngine(t testing.TB, left bool) *Engine {
	t.Helper()
	cfg := Config{Config: node.Config{N: 4, F: 1}, Rounds: 8}
	e, err := NewEngine(cfg, map[IID]float64{{K: 50}: 1}, func(map[IID]float64) {})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(&SinkEnv{Nodes: 4, Faults: 1})
	vals := make([]IVal, fuzzPrev)
	for i := range vals {
		vals[i] = IVal{ID: IID{K: int32(50 + i)}, Round: 1, V: math.Ldexp(1, -i)}
	}
	e.HandleEcho1(fuzzSender, &Echo1{Round: 1, Init: true, Vals: vals})
	if left {
		for _, from := range []node.ID{2, 3} {
			e.HandleEcho1(from, &Echo1{Round: 1, Init: true, Vals: vals})
		}
		for from := node.ID(1); from < 4; from++ {
			e.HandleEcho2C(from, &Echo2C{Round: 1, Bits: []byte{1<<fuzzPrev - 1}})
			e.HandleEcho2(from, &Echo2{Round: 1, Zeros: true})
		}
		if e.round != 2 {
			t.Fatalf("fixture stands in round %d, want 2", e.round)
		}
	}
	return e
}

// nibble reads symbol i of a packNibbles buffer; the caller guarantees
// len(b) >= (i+2)/2.
func nibble(b []byte, i int) uint8 { return b[i/2] >> (4 * (i & 1)) & 0x0f }

// wellFormed is the test's own statement of when a compressed bundle must
// be accepted against a previous announcement of prev entries.
func wellFormed(m *Echo1C, prev int) bool {
	if int(m.PrevCount) != prev || len(m.Deltas) < (prev+1)/2 {
		return false
	}
	esc := 0
	for i := 0; i < prev; i++ {
		switch sym := nibble(m.Deltas, i); {
		case sym == symX:
			if esc == len(m.Escapes) {
				return false
			}
			esc++
		case sym > sym2R:
			return false
		}
	}
	return true
}

// checkCompressedDelivery hands m to both fuzzEngine fixtures as fuzzSender's
// bundle. Nothing may panic. The bundle takes effect only if it opens round 2
// and is well formed against the stored round-1 announcement; otherwise it is
// dropped, buffered or ignored, and initSeen, initCount, the stored bundles —
// the base bundle entry by entry: the in-place path must not write before it
// has validated — and the instance list must be exactly as before. An
// accepted bundle must be stored with every entry resolved and every value
// reconstructed; its base bundle is untouched when its round is current and
// gone when its round is left.
func checkCompressedDelivery(t *testing.T, m *Echo1C) {
	for _, left := range []bool{false, true} {
		checkCompressedOn(t, fuzzEngine(t, left), left, m)
	}
}

func checkCompressedOn(t *testing.T, e *Engine, left bool, m *Echo1C) {
	rounds := e.cfg.Rounds
	base := slices.Clone(e.rs[0].initBundles[fuzzSender])
	type snap struct {
		seen  bool
		count int
	}
	before := make([]snap, rounds)
	for i := range e.rs {
		before[i] = snap{e.rs[i].initSeen.get(fuzzSender), e.rs[i].initCount}
	}
	insts := len(e.instList)

	e.HandleEcho1C(fuzzSender, m)

	applied := m.Round == 2 && wellFormed(m, fuzzPrev)
	if len(e.rs) > rounds {
		t.Fatalf("round state grown to %d rounds, cap is %d", len(e.rs), rounds)
	}
	for i := range e.rs {
		want := before[i]
		if applied && i == 1 {
			want = snap{true, want.count + 1}
		}
		if got := (snap{e.rs[i].initSeen.get(fuzzSender), e.rs[i].initCount}); got != want {
			t.Fatalf("round %d: (seen, count) = %v, want %v (applied=%v)", i+1, got, want, applied)
		}
	}
	if kept := e.rs[0].initBundles[fuzzSender]; applied && left {
		if kept != nil {
			t.Fatalf("left-round base bundle still stored (%d entries) after its successor", len(kept))
		}
	} else if !slices.Equal(kept, base) {
		t.Fatalf("base bundle changed (applied=%v, left=%v):\n got %v\nwant %v", applied, left, kept, base)
	}
	if !applied {
		if len(e.instList) != insts {
			t.Fatalf("rejected bundle activated %d instances", len(e.instList)-insts)
		}
		if len(e.rs) > 1 && e.rs[1].initBundles[fuzzSender] != nil {
			t.Fatal("rejected bundle was stored")
		}
		return
	}
	b := e.rs[1].initBundles[fuzzSender]
	if len(b) != fuzzPrev+len(m.NewVals) {
		t.Fatalf("stored bundle has %d entries, want %d", len(b), fuzzPrev+len(m.NewVals))
	}
	esc := 0
	for i, p := range base {
		want := applySymbol(p.v, nibble(m.Deltas, i), 2)
		if nibble(m.Deltas, i) == symX {
			want = m.Escapes[esc]
			esc++
		}
		if b[i].ref != p.ref || math.Float64bits(b[i].v) != math.Float64bits(want) {
			t.Fatalf("entry %d reconstructed as %d=%g, want %d=%g", i, b[i].ref, b[i].v, p.ref, want)
		}
	}
	if _, resolved := e.StoredBundle(2, fuzzSender); !resolved {
		t.Fatalf("stored bundle has an unresolved entry: %v", b)
	}
	// The paths that read the indices: a bitmap over the whole announcement
	// and the sender's zeros bundle.
	bits := make([]byte, len(b)/8+1)
	for i := range bits {
		bits[i] = 0xff
	}
	e.HandleEcho2C(fuzzSender, &Echo2C{Round: 2, Bits: bits})
	e.HandleEcho2(fuzzSender, &Echo2{Round: 2, Zeros: true})
}

// echo1CSeeds are the compressed bundles of compress_test.go — the
// round-trip message and the byzCompressed forgeries — plus a well-formed
// round-2 bundle for fuzzEngine, two that go wrong late, and five around
// runs of zero bytes.
func echo1CSeeds() []*Echo1C {
	return []*Echo1C{
		{Round: 3, PrevCount: 5, Deltas: packNibbles([]uint8{symC, symL, sym2R, symX, symR}),
			Escapes: []float64{0.625}, NewVals: []IVal{{ID: IID{Level: 2, K: -7}, Round: 3, V: 0.25}}},
		{Round: 2, PrevCount: 5, Deltas: packNibbles([]uint8{symC, symL, sym2R, symX, symR}),
			Escapes: []float64{0.625}, NewVals: []IVal{{ID: IID{Level: 2, K: -7}, Round: 2, V: 0.25}}},
		{Round: 2, PrevCount: 9, Deltas: []byte{0xff}, Escapes: []float64{5}},
		{Round: 3, PrevCount: 1, Deltas: []byte{symX}},
		{Round: 2, PrevCount: 5, Deltas: []byte{symX | symX<<4, symX}, Escapes: []float64{1}},
		// Malformed only after deltas a one-pass rebuild would already have
		// applied: a second escape with one value, an unknown symbol.
		{Round: 2, PrevCount: 5, Deltas: packNibbles([]uint8{symL, symX, symX, symC, symC}), Escapes: []float64{0.5}},
		{Round: 2, PrevCount: 5, Deltas: packNibbles([]uint8{symR, sym2L, 7, symC, symC})},
		// The rebuild skips zero bytes (two symC entries each). Around them: a
		// padding nibble after the odd count, a lattice symbol or an escape
		// with no escape value, is ignored; escapes keep announcement order;
		// an unknown symbol still drops the bundle before anything is written.
		{Round: 2, PrevCount: 5, Deltas: []byte{0, 0, symL | 0xf<<4}},
		{Round: 2, PrevCount: 5, Deltas: []byte{0, 0, symX << 4}},
		{Round: 2, PrevCount: 5, Deltas: []byte{0, symX << 4, symX}, Escapes: []float64{0.375, 0.125}},
		{Round: 2, PrevCount: 5, Deltas: []byte{0, 0, 7}},
		{Round: 2, PrevCount: 5, Deltas: []byte{symX, 0x70, 0}, Escapes: []float64{0.5}},
	}
}

// FuzzDecodeEcho1C feeds arbitrary bytes through the wire decoder and, when
// they decode, through the engine.
func FuzzDecodeEcho1C(f *testing.F) {
	for _, m := range echo1CSeeds() {
		body, err := m.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := DecodeEcho1C(body)
		if err != nil {
			return
		}
		checkCompressedDelivery(t, m.(*Echo1C))
	})
}

// FuzzApplyCompressed builds the bundle field by field, so the fuzzer
// reaches the reconstruction loop without first having to satisfy the
// decoder: escapes are 8-byte floats, newVals 13-byte (level, K, value)
// records.
func FuzzApplyCompressed(f *testing.F) {
	for _, m := range echo1CSeeds() {
		var esc, nv []byte
		for _, v := range m.Escapes {
			esc = binary.LittleEndian.AppendUint64(esc, math.Float64bits(v))
		}
		for _, v := range m.NewVals {
			nv = append(nv, v.ID.Level)
			nv = binary.LittleEndian.AppendUint32(nv, uint32(v.ID.K))
			nv = binary.LittleEndian.AppendUint64(nv, math.Float64bits(v.V))
		}
		f.Add(m.Round, m.PrevCount, m.Deltas, esc, nv)
	}
	f.Fuzz(func(t *testing.T, round, prevCount uint16, deltas, esc, nv []byte) {
		m := &Echo1C{Round: round, PrevCount: prevCount, Deltas: deltas}
		for ; len(esc) >= 8; esc = esc[8:] {
			m.Escapes = append(m.Escapes, math.Float64frombits(binary.LittleEndian.Uint64(esc)))
		}
		for ; len(nv) >= 13; nv = nv[13:] {
			m.NewVals = append(m.NewVals, IVal{
				ID:    IID{Level: nv[0], K: int32(binary.LittleEndian.Uint32(nv[1:]))},
				Round: round,
				V:     math.Float64frombits(binary.LittleEndian.Uint64(nv[5:])),
			})
		}
		checkCompressedDelivery(t, m)
	})
}
