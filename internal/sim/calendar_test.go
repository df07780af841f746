package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
	"time"

	"delphi/internal/node"
)

// refHeap is the reference the queue is checked against: container/heap
// over the same (at, seq) order.
type refHeap []heapEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].before(&h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(heapEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

const bucketNS = time.Duration(1) << seqBucketShift

// checkQueueOrder drives the sequential runner's queue — push and next, so
// the near heap, the sorted run, the calendar ring and its overflow
// heap together — and a reference min-heap with the same operations and
// requires identical pop sequences. Each op is two bytes, (kind, magnitude):
// an even kind pops, an odd kind pushes by rule kind>>1&15. Rules 0–7 place
// one event relative to the clock (the time of the last pop): at the clock,
// before it, inside the bucket being drained, a typical link delay, exactly
// at the ring horizon, one bucket short of it, and beyond it. Rules 8–15 aim
// at the sorted run:
//
//   - 8, 14, 15: a burst of events with one identical time — two buckets on,
//     on the last nanosecond of the clock's bucket, at a landmark — one
//     burst in 32 long enough to chain three chunks, so that take order is
//     not seq order;
//   - 9: one event at the landmark, a time every 8.6 s (two ring spans) that
//     earlier and later ops hit too, through the overflow heap or directly;
//   - 10, 11: the first and the last nanosecond of a bucket;
//   - 12: a tie with the head of the queue, or one nanosecond after it: a
//     push into the bucket being drained, between two pops of its run;
//   - 13: nanoseconds past the clock; for kind 251 and magnitude 255 an early
//     stop instead — Run pops one event of the half-drained queue, hits its
//     time bound and hands the buffers back to the Scratch, which must then
//     hold no message, and a new runner adopts them at the same clock.
//
// The near heap is first filled with 64 events over the first 19 ms — what a
// run queues before the calendar engages, which next has to merge with the
// buckets filed over them later — and with nearMin events decades out, which
// stay there to the end (and are checked there, not mirrored in the
// reference), so every later push past the drained bucket goes to the
// calendar. Every event is a send of its own, put in the runner's arena and
// numbered the way dispatch numbers it, so the sequence numbers next compares
// are looked up there. It returns the last bucket taken before the final drain.
func checkQueueOrder(t *testing.T, ops []byte) int64 {
	t.Helper()
	const far = time.Duration(1) << 60
	s := &Scratch{}
	var r *Runner
	var ref refHeap
	put := func(at time.Duration) heapEvent {
		r.seq++
		e := heapEvent{event{at: at, rec: r.sent.put(pingMsg{}, 0, 0)}, r.seq}
		r.sent.at(e.rec).base = e.seq
		r.push(&e.event, e.seq)
		return e
	}
	push := func(at time.Duration) { heap.Push(&ref, put(at)) }
	start := func(now time.Duration) {
		var err error
		if r, err = NewRunner(node.Config{N: 4, F: 1}, Environment{}, 0, make([]node.Process, 4), WithScratch(s), WithMaxTime(-1)); err != nil {
			t.Fatal(err)
		}
		r.now = now
		for i := time.Duration(0); i < chunkEvents; i++ {
			push(now + i*300*time.Microsecond)
		}
		for i := 0; i < nearMin; i++ {
			put(far + time.Duration(i))
		}
	}
	start(0)
	burst := func(at time.Duration, m byte) {
		n := 2 + int(m&7)
		if m>>3 == 31 {
			n += 2 * chunkEvents // one time, three chunks
		}
		for ; n > 0; n-- {
			push(at)
		}
	}
	pop := func() {
		want := heap.Pop(&ref).(heapEvent)
		var got event
		if !r.next(&got) {
			t.Fatalf("queue empty with %d events outstanding; want (%v, %d)", len(ref)+1, want.at, want.seq)
		}
		if got != want.event {
			t.Fatalf("popped (%v, %d), want (%v, %d)", got.at, r.seqOf(&got), want.at, want.seq)
		}
		r.now = got.at
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
		bucket := r.now >> seqBucketShift << seqBucketShift
		landmark := (r.now>>33+1)<<33 | m&1 // every 8.6 s, two ring spans
		switch kind >> 1 & 15 {
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
		case 8:
			burst(r.now+2*bucketNS+m*time.Microsecond, ops[i+1])
		case 9:
			push(landmark)
		case 10:
			push(bucket + m&3*bucketNS)
		case 11:
			push(bucket + m&3*bucketNS + bucketNS - 1)
		case 12:
			if len(ref) > 0 {
				push(ref[0].at + m&1)
			}
		case 13:
			if kind>>5 != 7 || m != 255 || len(ref) == 0 {
				push(r.now + m)
				break
			}
			if res := r.Run(); res.Events != 0 {
				t.Fatalf("a run bounded at -1 ns delivered %d events", res.Events)
			}
			if got := scratchMessages(s); got != 0 {
				t.Fatalf("an early stop with %d events queued left %d messages in the Scratch", len(ref), got)
			}
			ref = ref[:0]
			start(r.now)
			push(r.now) // one pop, and the new calendar's base is the clock's bucket
			pop()
		case 14:
			burst(bucket+bucketNS-1, ops[i+1])
		case 15:
			burst(landmark, ops[i+1])
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
		var got event
		if !r.next(&got) {
			t.Fatalf("queue empty at resident %d", i)
		}
		if got.at != far+time.Duration(i) {
			t.Fatalf("resident %d popped as (%v, %d)", i, got.at, r.seqOf(&got))
		}
	}
	if r.next(new(event)) {
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
// placement rule, the horizon boundary on both sides, and an overflow drain,
// then the sorted run: a three-chunk tie burst popped halfway with ties
// pushed against its head, a landmark reached through the overflow heap and
// then directly, bucket edges, and two early stops on a half-drained run.
func FuzzCalendarOrder(f *testing.F) {
	f.Add([]byte{1, 0, 3, 9, 5, 200, 7, 40, 9, 41, 0, 0, 0, 0, 11, 0, 13, 0, 15, 3, 0, 0})
	f.Add([]byte{11, 0, 11, 1, 13, 0, 13, 255, 0, 0, 11, 0, 0, 0, 0, 0, 15, 0, 0, 0, 0, 0})
	f.Add([]byte{15, 255, 15, 0, 7, 1, 0, 0, 0, 0, 3, 255, 1, 0, 0, 0, 5, 255, 0, 0})
	f.Add([]byte{17, 255, 17, 250, 0, 0, 0, 0, 25, 0, 25, 1, 0, 0, 25, 0, 0, 0, 29, 249, 0, 0, 0, 0})
	f.Add([]byte{19, 0, 31, 255, 9, 200, 0, 0, 0, 0, 19, 1, 31, 248, 19, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{21, 0, 21, 1, 23, 0, 23, 3, 0, 0, 23, 0, 21, 1, 0, 0, 0, 0, 27, 7, 0, 0})
	f.Add([]byte{17, 255, 0, 0, 0, 0, 251, 255, 17, 255, 5, 9, 0, 0, 251, 255, 31, 250, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) { checkQueueOrder(t, ops) })
}

// TestSortRun checks the bucket sort alone, on both sides of its one-event,
// chunk and radix boundaries: whatever order take left a bucket in, keys must
// list each of its events once, in (at, seq) order — with every time equal
// (seq alone decides), every time distinct, and few distinct times under
// shuffled seqs (both decide).
func TestSortRun(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	inputs := map[string]func(i, n int) time.Duration{
		"all-equal":    func(i, n int) time.Duration { return bucketNS - 1 },
		"all-distinct": func(i, n int) time.Duration { return time.Duration(i) * (bucketNS / time.Duration(n)) },
		"shuffled-seq": func(i, n int) time.Duration { return time.Duration(rng.Intn(8)) << uint(rng.Intn(17)) },
	}
	for _, n := range []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 5000} {
		for name, low := range inputs {
			r := &Runner{run: make([]event, n)}
			for i, seq := range rng.Perm(n) {
				r.run[i] = event{at: 77*bucketNS + low(i, n), rec: r.sent.put(nil, 0, 0)}
				r.sent.at(r.run[i].rec).base = uint64(seq)
			}
			rng.Shuffle(n, func(i, j int) { r.run[i], r.run[j] = r.run[j], r.run[i] })
			r.sortRun()
			seen := make([]bool, n)
			for i, k := range r.keys[:n] {
				if seen[uint32(k)] {
					t.Fatalf("n=%d %s: key %d repeats event %d", n, name, i, uint32(k))
				}
				seen[uint32(k)] = true
				if i == 0 {
					continue
				}
				prev, e := &r.run[uint32(r.keys[i-1])], &r.run[uint32(k)]
				if prev.at > e.at || prev.at == e.at && r.seqOf(prev) >= r.seqOf(e) {
					t.Fatalf("n=%d %s: key %d is out of (at, seq) order", n, name, i)
				}
			}
		}
	}
}

// TestCalendarRelease pins the two arenas' scratch rule: a run that used the
// chunks and the sent records keeps them, a run that left them idle gives them
// up, and release leaves no event filed and no message held either way.
func TestCalendarRelease(t *testing.T) {
	c := &calendar{width: bucketNS}
	var a sentArena
	fill := func(n int) {
		for i := 0; i < n; i++ {
			idx := int64(i%(n/100) + 1)
			c.push(&event{at: time.Duration(idx) * bucketNS, rec: a.put(pingMsg{}, 48, 0)}, idx)
		}
		c.push(&event{at: 2 * ringBuckets * bucketNS, rec: a.put(pingMsg{}, 48, 0)}, 2*ringBuckets)
	}
	release := func() {
		c.release()
		a.release()
	}
	fill(100_000)
	release()
	held, records := c.retained(), a.retained()
	if held < 100_000 || records < 100_000 {
		t.Fatalf("retained %d event slots and %d records after a run that filed 100000", held, records)
	}
	for _, slab := range c.slabs {
		for i := range slab {
			if slab[i].n != 0 {
				t.Fatal("release left an event in a retained chunk")
			}
		}
	}
	if arenaMessages(&a) != 0 {
		t.Fatal("release left a message in a retained record")
	}
	if c.count != 0 || len(c.overflow) != 0 || c.next() != math.MaxInt64 || a.used != 0 {
		t.Fatal("released arenas are not empty")
	}
	fill(100_000)
	release()
	if got := c.retained(); got != held || a.retained() != records {
		t.Errorf("steady-state reuse moved retained capacity %d -> %d, records %d -> %d", held, got, records, a.retained())
	}
	fill(100)
	release()
	if got := c.retained(); got > held/4 || a.retained() > records/4 {
		t.Errorf("after a small run %d of %d event slots and %d of %d records are still retained", got, held, a.retained(), records)
	}
	for k, slab := range a.slabs {
		if (slab != nil) != (k < a.held) {
			t.Errorf("slab %d of an arena that holds %d: %v", k, a.held, slab)
		}
	}
}
