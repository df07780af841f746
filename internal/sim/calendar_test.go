package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
	"time"
)

// refHeap is the reference the queue is checked against: container/heap
// over the same (at, seq) order.
type refHeap []event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].before(&h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

const bucketNS = time.Duration(1) << seqBucketShift

// checkQueueOrder drives the sequential runner's queue — push and ready, so
// the near heap, the calendar ring and its overflow heap together — and a
// reference min-heap with the same operations and requires identical pop
// sequences. Each op is two bytes, (kind, magnitude): an even kind pops, an
// odd kind pushes an event whose time is placed relative to the clock (the
// time of the last pop) by one of eight rules: at the clock, before it,
// inside the bucket being drained, a typical link delay, exactly at the
// ring horizon, one bucket short of it, and beyond it. The near heap is
// first filled with nearMin events decades out, which stay there to the
// end (and are checked there, not mirrored in the reference), so every
// later push past the drained bucket goes to the calendar. It returns the
// last bucket taken before the final drain.
func checkQueueOrder(t *testing.T, ops []byte) int64 {
	t.Helper()
	r := &Runner{}
	var ref refHeap
	push := func(at time.Duration) {
		r.seq++
		e := event{at: at, seq: r.seq}
		r.push(&e)
		heap.Push(&ref, e)
	}
	pop := func() {
		want := heap.Pop(&ref).(event)
		if !r.ready() {
			t.Fatalf("queue empty with %d events outstanding; want (%v, %d)", len(ref)+1, want.at, want.seq)
		}
		got := r.near.pop()
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("popped (%v, %d), want (%v, %d)", got.at, got.seq, want.at, want.seq)
		}
		r.now = got.at
	}
	const far = time.Duration(1) << 60
	for i := 0; i < nearMin; i++ {
		r.seq++
		r.push(&event{at: far + time.Duration(i), seq: r.seq})
	}
	for i := 0; i+1 < len(ops); i += 2 {
		kind, m := ops[i], time.Duration(ops[i+1])
		if kind&1 == 0 {
			if len(ref) > 0 {
				pop()
			}
			continue
		}
		var horizon time.Duration
		if r.cal != nil {
			horizon = time.Duration(r.cal.base+ringBuckets) * bucketNS
		}
		switch kind >> 1 & 7 {
		case 0:
			push(r.now)
		case 1:
			push(max(0, r.now-m*time.Microsecond))
		case 2:
			push(r.now + m*time.Microsecond)
		case 3:
			push(r.now + m>>4*16*time.Millisecond + time.Duration(kind)*time.Microsecond)
		case 4:
			push(r.now + m*16*time.Millisecond + time.Duration(kind)*time.Microsecond)
		case 5:
			push(horizon + m)
		case 6:
			push(max(r.now, horizon-bucketNS+m))
		case 7:
			push(r.now + ringBuckets*bucketNS + m*10*time.Millisecond)
		}
	}
	var last int64
	if r.cal != nil {
		last = r.cal.base
	}
	for len(ref) > 0 {
		pop()
	}
	for i := 0; i < nearMin; i++ {
		if !r.ready() {
			t.Fatalf("queue empty at resident %d", i)
		}
		if got := r.near.pop(); got.at != far+time.Duration(i) {
			t.Fatalf("resident %d popped as (%v, %d)", i, got.at, got.seq)
		}
	}
	if r.ready() {
		t.Fatal("queue holds an event the reference does not")
	}
	if r.cal == nil {
		return last
	}
	if r.cal.count != 0 || len(r.cal.overflow) != 0 || r.cal.inUse != 0 {
		t.Fatalf("drained calendar still counts %d ring events, %d overflow, %d chunks in use",
			r.cal.count, len(r.cal.overflow), r.cal.inUse)
	}
	return last
}

// TestCalendarOrder is the property test: a long random interleaving that
// alternates phases of nine pushes to one pop with phases of the reverse,
// so the pending set swells until buckets chain several chunks and then
// drains, carrying the clock forward — far enough to wrap the ring more
// than twice.
func TestCalendarOrder(t *testing.T) {
	const phase = 40_000
	rng := rand.New(rand.NewSource(15))
	ops := make([]byte, 2*16*phase)
	rng.Read(ops)
	for i := 0; i < len(ops); i += 2 {
		pushes := 9
		if i/2/phase%2 == 1 {
			pushes = 1
		}
		if rng.Intn(10) < pushes {
			ops[i] |= 1
		} else {
			ops[i] &^= 1
		}
	}
	base := checkQueueOrder(t, ops)
	if base < 2*ringBuckets {
		t.Fatalf("last bucket taken is %d: the run did not wrap the %d-bucket ring twice", base, ringBuckets)
	}
}

// FuzzCalendarOrder is the same body under the fuzzer; the seeds walk each
// placement rule, the horizon boundary on both sides, and an overflow drain.
func FuzzCalendarOrder(f *testing.F) {
	f.Add([]byte{1, 0, 3, 9, 5, 200, 7, 40, 9, 41, 0, 0, 0, 0, 11, 0, 13, 0, 15, 3, 0, 0})
	f.Add([]byte{11, 0, 11, 1, 13, 0, 13, 255, 0, 0, 11, 0, 0, 0, 0, 0, 15, 0, 0, 0, 0, 0})
	f.Add([]byte{15, 255, 15, 0, 7, 1, 0, 0, 0, 0, 3, 255, 1, 0, 0, 0, 5, 255, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) { checkQueueOrder(t, ops) })
}

// TestCalendarRelease pins the arena's scratch rule: a run that used the
// chunks keeps them, a run that left them idle gives them up, and release
// leaves no event behind either way.
func TestCalendarRelease(t *testing.T) {
	c := &calendar{width: bucketNS}
	fill := func(n int) {
		for i := 0; i < n; i++ {
			idx := int64(i%(n/100) + 1)
			c.push(event{at: time.Duration(idx) * bucketNS, seq: uint64(i), msg: pingMsg{}}, idx)
		}
		c.push(event{at: 2 * ringBuckets * bucketNS, msg: pingMsg{}}, 2*ringBuckets)
	}
	fill(100_000)
	c.release()
	held := c.retained()
	if held < 100_000 {
		t.Fatalf("retained %d event slots after a run that filed 100000", held)
	}
	for _, slab := range c.slabs {
		for i := range slab {
			if slab[i].n != 0 || slab[i].ev[0].msg != nil {
				t.Fatal("release left an event in a retained chunk")
			}
		}
	}
	if c.count != 0 || len(c.overflow) != 0 || c.next() != math.MaxInt64 {
		t.Fatal("released calendar is not empty")
	}
	fill(100_000)
	c.release()
	if got := c.retained(); got != held {
		t.Errorf("steady-state reuse moved retained capacity %d -> %d", held, got)
	}
	fill(100)
	c.release()
	if got := c.retained(); got > held/4 {
		t.Errorf("after a small run %d of %d event slots are still retained", got, held)
	}
}
