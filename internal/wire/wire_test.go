package wire_test

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"delphi/internal/node"
	"delphi/internal/wire"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	var w wire.Writer
	w.U8(0xab)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(0x0123456789abcdef)
	w.UVarint(300)
	w.Varint(-77)
	w.F64(math.Pi)
	w.Bool(true)
	w.Bool(false)
	w.BytesLP([]byte("hello"))

	r := wire.NewReader(w)
	if got := r.U8(); got != 0xab {
		t.Errorf("U8 = %x", got)
	}
	if got := r.U16(); got != 0xbeef {
		t.Errorf("U16 = %x", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %x", got)
	}
	if got := r.U64(); got != 0x0123456789abcdef {
		t.Errorf("U64 = %x", got)
	}
	if got := r.UVarint(); got != 300 {
		t.Errorf("UVarint = %d", got)
	}
	if got := r.Varint(); got != -77 {
		t.Errorf("Varint = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.Bool(); !got {
		t.Error("Bool true lost")
	}
	if got := r.Bool(); got {
		t.Error("Bool false lost")
	}
	if got := string(r.BytesLP()); got != "hello" {
		t.Errorf("BytesLP = %q", got)
	}
	if err := r.Err(); err != nil {
		t.Errorf("Err = %v", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
}

func TestVarintRoundTripProperty(t *testing.T) {
	f := func(u uint64, v int64) bool {
		var w wire.Writer
		w.UVarint(u)
		w.Varint(v)
		r := wire.NewReader(w)
		return r.UVarint() == u && r.Varint() == v && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVarintSizeMatchesEncoding(t *testing.T) {
	f := func(u uint64, v int64) bool {
		var w wire.Writer
		w.UVarint(u)
		n1 := len(w)
		w.Varint(v)
		n2 := len(w) - n1
		return wire.UVarintSize(u) == n1 && wire.VarintSize(v) == n2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedReads(t *testing.T) {
	r := wire.NewReader([]byte{1, 2})
	_ = r.U64()
	if r.Err() == nil {
		t.Error("truncated U64 not flagged")
	}
	r = wire.NewReader([]byte{0x05, 'a'}) // claims 5 bytes, has 1
	if b := r.BytesLP(); b != nil || r.Err() == nil {
		t.Error("truncated BytesLP not flagged")
	}
}

type pingMsg struct{ v uint32 }

func (m *pingMsg) Type() uint8   { return wire.TypeTestPing }
func (m *pingMsg) WireSize() int { return 1 + 4 }
func (m *pingMsg) AppendBinary(b []byte) ([]byte, error) {
	w := wire.Writer(b)
	w.U32(m.v)
	return w, nil
}

func TestRegistry(t *testing.T) {
	reg := wire.NewRegistry()
	dec := func(body []byte, _ *wire.Arena) (node.Message, error) {
		r := wire.NewReader(body)
		m := &pingMsg{v: r.U32()}
		return m, r.Err()
	}
	if err := reg.Register(wire.TypeTestPing, dec); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(wire.TypeTestPing, dec); err == nil {
		t.Error("double registration accepted")
	}
	frame, err := wire.Encode(&pingMsg{v: 42})
	if err != nil {
		t.Fatal(err)
	}
	m, err := reg.DecodeFramed(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.(*pingMsg).v; got != 42 {
		t.Errorf("decoded v = %d", got)
	}
	if _, err := reg.DecodeFramed([]byte{199, 0}); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := reg.DecodeFramed(nil); err == nil {
		t.Error("empty frame accepted")
	}
}

// TestArenaOversizedField: a field longer than a chunk, as a Byzantine
// length prefix can claim, is allocated alone at exactly its own size. It
// neither replaces nor pins the arena's chunk: the next short field is carved
// right after the one before it.
func TestArenaOversizedField(t *testing.T) {
	var a wire.Arena
	short := []byte("short")
	before := a.Copy(short)
	huge := make([]byte, 1<<20)
	// The quietest of five copies: the counters are the whole process's.
	var got []byte
	mallocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 5 {
		runtime.GC() // so that the copy starts no collection of its own
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		got = a.Copy(huge)
		runtime.ReadMemStats(&m1)
		mallocs, bytes = min(mallocs, m1.Mallocs-m0.Mallocs), min(bytes, m1.TotalAlloc-m0.TotalAlloc)
	}
	if mallocs != 1 || bytes != uint64(len(huge)) {
		t.Errorf("copying a %d-byte field made %d allocations of %d bytes, want one of exactly its size", len(huge), mallocs, bytes)
	}
	if len(got) != len(huge) || cap(got) != len(huge) {
		t.Errorf("copy has len %d cap %d, want %d", len(got), cap(got), len(huge))
	}
	after := a.Copy(short)
	if unsafe.SliceData(after) != (*byte)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(before)), len(before))) {
		t.Error("the field after an oversized one was not carved right after the one before it")
	}
	var ids []uint64
	if allocs := testing.AllocsPerRun(10, func() { ids = wire.Make[uint64](&a, 1<<17) }); allocs != 1 || len(ids) != 1<<17 {
		t.Errorf("an oversized slice field: %.0f allocations, len %d", allocs, len(ids))
	}
}

// TestArenaReset: a reset arena hands out the chunks it kept again, zeroed,
// so refilling it allocates nothing, and nothing it hands out shows a value
// carved before the reset.
func TestArenaReset(t *testing.T) {
	type msg struct {
		a, b uint64
		p    []byte
	}
	var a wire.Arena
	fill := func() {
		for i := range 300 {
			m := wire.New(&a, msg{a: uint64(i) + 1, b: 7})
			m.p = a.Copy([]byte("payload"))
			wire.Make[uint32](&a, 3)[1] = 9
		}
	}
	a.Reset() // as a driver does when it starts
	fill()
	if allocs := testing.AllocsPerRun(5, func() { a.Reset(); fill() }); allocs != 0 {
		t.Errorf("refilling a reset arena made %.1f allocations, want 0", allocs)
	}
	a.Reset()
	for i := range 300 {
		m := wire.Make[msg](&a, 1)[0]
		p, ids := wire.Make[byte](&a, 7), wire.Make[uint32](&a, 3)
		if m.a != 0 || m.b != 0 || m.p != nil || ids[1] != 0 || !bytes.Equal(p, make([]byte, 7)) {
			t.Fatalf("value %d after a reset is %+v, %q, %v, want zero", i, m, p, ids)
		}
	}
}

// lender is an env that lends its node an arena; its node.Env methods are
// never called here.
type lender struct {
	node.Env
	a *wire.Arena
}

func (e lender) SentArena() *wire.Arena { return e.a }

// TestSentArena: the lookup returns the arena an env lends, and nil for an
// env that lends none, which Make then treats as allocating each value alone.
func TestSentArena(t *testing.T) {
	var a wire.Arena
	if got := wire.SentArena(lender{a: &a}); got != &a {
		t.Errorf("SentArena of a lender = %p, want its arena %p", got, &a)
	}
	var plain struct{ node.Env }
	for _, env := range []node.Env{plain, nil} {
		if got := wire.SentArena(env); got != nil {
			t.Errorf("SentArena(%T) = %p, want nil", env, got)
		}
	}
}
