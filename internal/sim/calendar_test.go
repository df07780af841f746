package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
	"time"

	"delphi/internal/node"
)

// refEvent is an event beside the sequence number compare derives for it.
type refEvent struct {
	event
	seq uint64
}

// refHeap is the reference the queue is checked against: container/heap
// over the same (at, seq) order.
type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// queueWidths are the window widths the queue is checked at: the old 2^19 ns
// bucket, sim.Local's 1 ms (20 bits of offset), and 5 s, whose offsets pass
// the keys' 32 bits.
var queueWidths = []time.Duration{1 << 19, time.Millisecond, 5 * time.Second}

// checkQueueOrder drives a one-shard runner's queue — the calendar ring, its
// overflow heap, take and order together, as runWindow does — and a reference
// min-heap with the same operations, and requires identical delivery
// sequences. Each op is two bytes, (kind, magnitude): an even kind delivers
// the next window, an odd kind pushes by rule kind>>1&15. The clock is the
// start of the window after the last one delivered, the earliest time a push
// may name. Rules 0–7 place one event relative to it: at the clock, a few
// nanoseconds or microseconds on, a typical link delay, a long one, exactly at
// the ring horizon, one window short of it, and beyond it. Rules 8–15 aim at
// the window order:
//
//   - 8, 14, 15: a burst of events with one identical time — two windows on,
//     on the last nanosecond of the clock's window, at a landmark — one burst
//     in 32 long enough to chain three chunks, so that take order is not seq
//     order;
//   - 9: one event at the landmark, a time every 8.6 s (two ring spans at
//     2^19 ns) that earlier and later ops hit too, through the overflow heap
//     or directly;
//   - 10, 11: the first and the last nanosecond of a window;
//   - 12: a tie with the head of the queue, or one nanosecond after it;
//   - 13: nanoseconds past the clock; for kind 251 and magnitude 255 an early
//     stop instead — the shard hands its arenas back with events still filed,
//     they must then hold no message, and the queue restarts at the clock.
//
// Every event is a send of its own, put in the shard's arena and numbered
// the way dispatch numbers it (sender seq%3), so the sequence numbers order
// compares are looked up there. It returns the last window delivered.
func checkQueueOrder(t *testing.T, width time.Duration, ops []byte) int64 {
	t.Helper()
	s := &Scratch{}
	var (
		r   *Runner
		sh  *shard
		ref refHeap
		seq uint64
		now time.Duration
	)
	push := func(at time.Duration) {
		seq++
		e := refEvent{event{at: at, rec: sh.sent.put(pingMsg{}, 0, node.ID(seq%3))}, seq/3<<seqShift | seq%3}
		sh.sent.at(e.rec).base = seq / 3
		sh.cal.push(&e.event, int64(at/width))
		heap.Push(&ref, e)
	}
	start := func() {
		var err error
		if r, err = NewRunner(node.Config{N: 4, F: 1}, Environment{Latency: FixedLatency(width)}, 0, make([]node.Process, 4), WithScratch(s)); err != nil {
			t.Fatal(err)
		}
		sh = r.shards[0]
		for i := time.Duration(0); i < chunkEvents; i++ {
			push(now + i*300*time.Microsecond)
		}
	}
	start()
	burst := func(at time.Duration, m byte) {
		n := 2 + int(m&7)
		if m>>3 == 31 {
			n += 2 * chunkEvents // one time, three chunks
		}
		for ; n > 0; n-- {
			push(at)
		}
	}
	var last int64
	deliver := func() {
		b := sh.cal.next()
		if b == math.MaxInt64 {
			if len(ref) > 0 {
				t.Fatalf("queue empty with %d events outstanding", len(ref))
			}
			return
		}
		last, sh.windowStart = b, time.Duration(b)*width
		sh.run = sh.cal.take(b, sh.run[:0])
		for i, k := range sh.order() {
			got := sh.run[uint32(k)]
			if len(ref) == 0 {
				t.Fatalf("window %d delivers (%v) at %d, past the reference's end", b, got.at, i)
			}
			if want := heap.Pop(&ref).(refEvent); got != want.event {
				t.Fatalf("window %d delivers (%v, rec %d) at %d, want (%v, seq %d)", b, got.at, got.rec, i, want.at, want.seq)
			}
		}
		if len(ref) > 0 && ref[0].at < sh.windowStart+width {
			t.Fatalf("window %d left (%v, %d) behind", b, ref[0].at, ref[0].seq)
		}
		now = sh.windowStart + width
	}
	for i := 0; i+1 < len(ops); i += 2 {
		kind, m := ops[i], time.Duration(ops[i+1])
		if kind&1 == 0 {
			deliver()
			continue
		}
		horizon := time.Duration(sh.cal.base+ringBuckets) * width
		window := now / width * width
		landmark := (now>>33+1)<<33 | m&1
		switch kind >> 1 & 15 {
		case 0:
			push(now)
		case 1:
			push(now + m)
		case 2:
			push(now + m*time.Microsecond)
		case 3:
			push(now + m>>4*16*time.Millisecond + time.Duration(kind)*time.Microsecond)
		case 4:
			push(now + m*16*time.Millisecond + time.Duration(kind)*time.Microsecond)
		case 5:
			push(horizon + m)
		case 6:
			push(max(now, horizon-width+m))
		case 7:
			push(now + ringBuckets*width + m*10*time.Millisecond)
		case 8:
			burst(now+2*width+m*time.Microsecond, ops[i+1])
		case 9:
			push(landmark)
		case 10:
			push(window + (1+m&3)*width)
		case 11:
			push(window + (2+m&3)*width - 1)
		case 12:
			if len(ref) > 0 {
				push(ref[0].at + m&1)
			}
		case 13:
			if kind>>5 != 7 || m != 255 || len(ref) == 0 {
				push(now + m)
				break
			}
			r.handback(s)
			if got := scratchMessages(s); got != 0 {
				t.Fatalf("an early stop with %d events queued left %d messages in the Scratch", len(ref), got)
			}
			ref = ref[:0]
			start()
		case 14:
			burst(window+2*width-1, ops[i+1])
		case 15:
			burst(landmark, ops[i+1])
		}
	}
	end := last
	for len(ref) > 0 {
		deliver()
	}
	if sh.cal.next() != math.MaxInt64 {
		t.Fatal("queue holds an event the reference does not")
	}
	if sh.cal.count != 0 || len(sh.cal.overflow) != 0 || sh.cal.inUse != 0 {
		t.Fatalf("drained calendar still counts %d ring events, %d overflow, %d chunks in use",
			sh.cal.count, len(sh.cal.overflow), sh.cal.inUse)
	}
	return end
}

// TestCalendarOrder is the property test: a long random interleaving that
// alternates phases of nine pushes to one delivered window with phases of the
// reverse, so the pending set swells until windows chain several chunks and
// then drains, carrying the clock forward — far enough to wrap the ring more
// than twice at the 2^19 ns width.
func TestCalendarOrder(t *testing.T) {
	const phase = 20_000
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
	for _, width := range queueWidths {
		base := checkQueueOrder(t, width, ops)
		if width == queueWidths[0] && base < 2*ringBuckets {
			t.Fatalf("last window taken is %d: the run did not wrap the %d-bucket ring twice", base, ringBuckets)
		}
	}
}

// FuzzCalendarOrder is the same body under the fuzzer, at every width in
// queueWidths; the seeds walk each placement rule, the horizon boundary on
// both sides, and an overflow drain, then the window order: a three-chunk tie
// burst with ties pushed against the head, a landmark reached through the
// overflow heap and then directly, window edges, and two early stops.
func FuzzCalendarOrder(f *testing.F) {
	f.Add([]byte{1, 0, 3, 9, 5, 200, 7, 40, 9, 41, 0, 0, 0, 0, 11, 0, 13, 0, 15, 3, 0, 0})
	f.Add([]byte{11, 0, 11, 1, 13, 0, 13, 255, 0, 0, 11, 0, 0, 0, 0, 0, 15, 0, 0, 0, 0, 0})
	f.Add([]byte{15, 255, 15, 0, 7, 1, 0, 0, 0, 0, 3, 255, 1, 0, 0, 0, 5, 255, 0, 0})
	f.Add([]byte{17, 255, 17, 250, 0, 0, 0, 0, 25, 0, 25, 1, 0, 0, 25, 0, 0, 0, 29, 249, 0, 0, 0, 0})
	f.Add([]byte{19, 0, 31, 255, 9, 200, 0, 0, 0, 0, 19, 1, 31, 248, 19, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{21, 0, 21, 1, 23, 0, 23, 3, 0, 0, 23, 0, 21, 1, 0, 0, 0, 0, 27, 7, 0, 0})
	f.Add([]byte{17, 255, 0, 0, 0, 0, 251, 255, 17, 255, 5, 9, 0, 0, 251, 255, 31, 250, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, width := range queueWidths {
			checkQueueOrder(t, width, ops)
		}
	})
}

// TestSortRun checks the window order alone, on both sides of its one-event,
// chunk and radix boundaries and at widths from 1 ns to past the keys' 32
// bits of offset: whatever order take left a window in, order must list each
// of its events once, in (at, seq) order — with every time equal (seq alone
// decides), every time distinct, and few distinct times under shuffled seqs
// (both decide).
func TestSortRun(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, width := range []time.Duration{1, 400 * time.Microsecond, time.Millisecond, 1<<32 + 5, 5 * time.Second} {
		inputs := map[string]func(i, n int) time.Duration{
			"all-equal":    func(i, n int) time.Duration { return width - 1 },
			"all-distinct": func(i, n int) time.Duration { return time.Duration(i) * (width / time.Duration(n)) },
			"shuffled-seq": func(i, n int) time.Duration { return (time.Duration(rng.Intn(8)) << uint(rng.Intn(40))) % width },
		}
		r, err := NewRunner(node.Config{N: 4, F: 1}, Environment{Latency: FixedLatency(width)}, 0, make([]node.Process, 4))
		if err != nil {
			t.Fatal(err)
		}
		sh := r.shards[0]
		sh.windowStart = 77 * width
		for _, n := range []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 5000} {
			for name, low := range inputs {
				sh.run = make([]event, n)
				for i, seq := range rng.Perm(n) {
					sh.run[i] = event{at: sh.windowStart + low(i, n), rec: sh.sent.put(nil, 0, node.ID(seq%3))}
					sh.sent.at(sh.run[i].rec).base = uint64(seq / 3)
				}
				rng.Shuffle(n, func(i, j int) { sh.run[i], sh.run[j] = sh.run[j], sh.run[i] })
				keys := sh.order()
				seen := make([]bool, n)
				for i, k := range keys {
					if seen[uint32(k)] {
						t.Fatalf("width %v n=%d %s: key %d repeats event %d", width, n, name, i, uint32(k))
					}
					seen[uint32(k)] = true
					if i > 0 && r.compare(&sh.run[uint32(keys[i-1])], &sh.run[uint32(k)]) >= 0 {
						t.Fatalf("width %v n=%d %s: key %d is out of (at, seq) order", width, n, name, i)
					}
				}
			}
		}
	}
}

// TestCalendarRelease pins the two arenas' scratch rule: a run that used the
// chunks and the sent records keeps them, a run that left them idle gives them
// up, and release leaves no event filed and no message held either way.
func TestCalendarRelease(t *testing.T) {
	const bucketNS = time.Duration(1) << 19
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
