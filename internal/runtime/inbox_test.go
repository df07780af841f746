package runtime

import (
	"bytes"
	"fmt"
	"testing"

	"delphi/internal/node"
)

// TestInboxGrowKeepsFIFO pins the ring's core contract: a burst far past
// the initial capacity grows the ring (never blocks, never drops) and pops
// in exact put order.
func TestInboxGrowKeepsFIFO(t *testing.T) {
	box := newInbox(2)
	const total = 500
	for i := 0; i < total; i++ {
		if !box.put(Frame{From: node.ID(i % 3), Data: []byte{byte(i), byte(i >> 8)}}) {
			t.Fatalf("put %d rejected on an open inbox", i)
		}
	}
	for i := 0; i < total; i++ {
		f, ok := box.tryGet()
		if !ok {
			t.Fatalf("inbox dry after %d/%d frames", i, total)
		}
		if got := int(f.Data[0]) | int(f.Data[1])<<8; got != i {
			t.Fatalf("frame %d out of order: got seq %d", i, got)
		}
	}
	if _, ok := box.tryGet(); ok {
		t.Fatal("tryGet returned a frame from an empty inbox")
	}
}

// TestInboxInterleavedGrow drains and refills across the wrap point so the
// grow path runs with head > 0 (the copy must unwrap the ring).
func TestInboxInterleavedGrow(t *testing.T) {
	box := newInbox(4)
	seqIn, seqOut := 0, 0
	put := func(k int) {
		for i := 0; i < k; i++ {
			box.put(Frame{Data: []byte{byte(seqIn), byte(seqIn >> 8)}})
			seqIn++
		}
	}
	get := func(k int) {
		for i := 0; i < k; i++ {
			f, ok := box.tryGet()
			if !ok {
				t.Fatalf("dry at %d", seqOut)
			}
			if got := int(f.Data[0]) | int(f.Data[1])<<8; got != seqOut {
				t.Fatalf("out of order at %d: got %d", seqOut, got)
			}
			seqOut++
		}
	}
	put(3)
	get(2) // head advances
	put(7) // wraps, then grows
	get(8)
	put(40) // grows again from a wrapped layout
	get(40)
	if seqIn != seqOut {
		t.Fatalf("in %d != out %d", seqIn, seqOut)
	}
}

// TestInboxCloseSemantics pins shutdown: put after close is rejected,
// buffered frames stay readable via tryGet, and a blocked get wakes up.
func TestInboxCloseSemantics(t *testing.T) {
	box := newInbox(4)
	box.put(Frame{Data: []byte{1}})
	box.close()
	if box.put(Frame{Data: []byte{2}}) {
		t.Error("put accepted after close")
	}
	if f, ok := box.tryGet(); !ok || f.Data[0] != 1 {
		t.Error("buffered frame lost at close")
	}
	if _, ok := box.get(nil); ok {
		t.Error("get on a closed drained inbox returned a frame")
	}
	// A second getter must also be released (cascade wake).
	done := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, ok := box.get(nil)
			done <- ok
		}()
	}
	for i := 0; i < 2; i++ {
		if <-done {
			t.Error("getter received a frame from a closed empty inbox")
		}
	}
}

// TestInboxStopChannel pins the stop path: a closed stop channel unblocks
// get without closing the inbox.
func TestInboxStopChannel(t *testing.T) {
	box := newInbox(4)
	stop := make(chan struct{})
	close(stop)
	if _, ok := box.get(stop); ok {
		t.Fatal("get returned a frame with stop closed and the inbox empty")
	}
	// The inbox is still alive.
	if !box.put(Frame{Data: []byte{7}}) {
		t.Fatal("inbox died from a stopped get")
	}
	if f, ok := box.get(stop); !ok || f.Data[0] != 7 {
		t.Fatal("buffered frame not preferred over a closed stop channel")
	}
}

// TestInboxBufferReuse pins the freelist: a recycled buffer backs the next
// getBuf of compatible size; oversized buffers are not retained.
func TestInboxBufferReuse(t *testing.T) {
	box := newInbox(4)
	b := box.getBuf(100)
	if len(b) != 100 {
		t.Fatalf("getBuf(100) returned len %d", len(b))
	}
	b[0] = 0xAB
	box.recycle(b)
	b2 := box.getBuf(50)
	if len(b2) != 50 {
		t.Fatalf("getBuf(50) returned len %d", len(b2))
	}
	if &b[0] != &b2[0] {
		t.Error("recycled buffer was not reused")
	}
	// Above the retention cap the buffer must be dropped to the GC, or one
	// huge frame would pin its memory in the pool forever.
	huge := make([]byte, inboxBufCap+1)
	box.recycle(huge)
	for _, class := range box.free {
		for _, f := range class {
			if cap(f) > inboxBufCap {
				t.Error("oversized buffer retained in the freelist")
			}
		}
	}
}

// TestInboxShrinkAfterBurst pins the ring's release of burst memory: after
// a burst grows the ring, draining it back down halves the ring (with
// hysteresis) instead of keeping the high-water capacity forever — a
// long-lived session must not hold peak-burst memory per slot. FIFO order
// must survive every shrink.
func TestInboxShrinkAfterBurst(t *testing.T) {
	box := newInbox(16)
	const burst = 4096
	for i := 0; i < burst; i++ {
		if !box.put(Frame{From: node.ID(i), Data: []byte{byte(i)}}) {
			t.Fatal("put rejected on an open inbox")
		}
	}
	if len(box.buf) < burst {
		t.Fatalf("ring did not grow: cap %d after burst of %d", len(box.buf), burst)
	}
	for i := 0; i < burst; i++ {
		f, ok := box.tryGet()
		if !ok {
			t.Fatalf("drained only %d of %d frames", i, burst)
		}
		if f.From != node.ID(i) || f.Data[0] != byte(i) {
			t.Fatalf("frame %d out of order after shrink (got from=%v)", i, f.From)
		}
	}
	if len(box.buf) >= inboxShrinkMin {
		t.Fatalf("ring kept %d slots after drain, want < %d", len(box.buf), inboxShrinkMin)
	}
	// The shrunken ring still works: interleaved traffic survives.
	for i := 0; i < 200; i++ {
		box.put(Frame{Data: []byte{byte(i)}})
	}
	for i := 0; i < 200; i++ {
		if f, ok := box.tryGet(); !ok || f.Data[0] != byte(i) {
			t.Fatalf("post-shrink frame %d broken", i)
		}
	}
}

// TestEnvelopeRoundtrip pins the batch wire format: AppendBatch and
// UnpackBatch are inverses, member order is preserved, and empty members
// survive.
func TestEnvelopeRoundtrip(t *testing.T) {
	frames := [][]byte{
		{1, 2, 3},
		{},
		bytes.Repeat([]byte{0xEE}, 300), // length needs a 2-byte uvarint
		{4},
	}
	env := AppendBatch(nil, frames)
	if !IsBatch(env) {
		t.Fatal("envelope does not identify as a batch")
	}
	var got [][]byte
	if err := UnpackBatch(env, func(inner []byte) bool {
		got = append(got, append([]byte(nil), inner...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("unpacked %d members, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Errorf("member %d corrupted: %x != %x", i, got[i], frames[i])
		}
	}
	// Early stop: fn returning false ends the walk without error.
	count := 0
	if err := UnpackBatch(env, func([]byte) bool { count++; return count < 2 }); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("early stop visited %d members, want 2", count)
	}
}

// TestEnvelopeMalformed pins rejection of damaged envelopes.
func TestEnvelopeMalformed(t *testing.T) {
	noop := func([]byte) bool { return true }
	cases := map[string][]byte{
		"empty":            {},
		"wrong type byte":  {0x01, 1, 0xAA},
		"member too long":  {BatchType, 10, 0xAA}, // claims 10 bytes, has 1
		"truncated varint": {BatchType, 0x80},     // continuation bit, no byte
	}
	for name, frame := range cases {
		if err := UnpackBatch(frame, noop); err == nil {
			t.Errorf("%s: UnpackBatch accepted %x", name, frame)
		}
	}
	// A sane envelope whose last member is cut off mid-body.
	env := AppendBatch(nil, [][]byte{{1, 2, 3, 4, 5}})
	if err := UnpackBatch(env[:len(env)-2], noop); err == nil {
		t.Error("truncated envelope accepted")
	}
}

// TestBatchTypeUnambiguous pins the reservation that makes IsBatch safe: no
// registered protocol message may ever claim the envelope's type byte. The
// registry enforces it (see wire.TypeBatch); this guards the constant pair.
func TestBatchTypeUnambiguous(t *testing.T) {
	if BatchType != 0xFF {
		t.Fatalf("BatchType = %#x; the wire registry reserves 0xFF", BatchType)
	}
	frames := [][]byte{{9, 9}}
	if env := AppendBatch(nil, frames); env[0] != BatchType {
		t.Fatal("envelope does not start with BatchType")
	}
}

func ExampleAppendBatch() {
	env := AppendBatch(nil, [][]byte{{0x01, 0xAA}, {0x02}})
	fmt.Printf("%x\n", env)
	// Output: ff0201aa0102
}

// TestInboxPoolSizeClasses: a pool warmed with envelopes of alternating sizes
// serves them again without allocating. Buffers come in powers of two and go
// back to the class of their capacity, so a small frame does not take the
// buffer a large one needs while one of its own size is free.
func TestInboxPoolSizeClasses(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	box := newInbox(16)
	var held [8][]byte
	cycle := func() {
		for i := range held {
			held[i] = box.getBuf([2]int{90, 1500}[i%2] + 7*i)
		}
		for _, b := range held {
			box.recycle(b)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("a warm pool made %.1f allocations a cycle, want 0", allocs)
	}
	small, large := box.getBuf(90), box.getBuf(1500)
	if cap(small) != 128 || cap(large) != 2048 {
		t.Errorf("90- and 1500-byte buffers have capacity %d and %d, want their classes' 128 and 2048", cap(small), cap(large))
	}
	box.recycle(small)
	box.recycle(large)
	if got := box.getBuf(90); &got[0] != &small[0] {
		t.Error("a 90-byte frame took the 1500-byte frame's buffer")
	}
}
