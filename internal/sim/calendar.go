package sim

import (
	"math"
	"time"
)

const (
	// ringBuckets is the calendar ring size in buckets (power of two). At
	// the AWS and CPS lookahead floor (0.4 ms) the ring spans 3.3 s of
	// virtual time, beyond the largest preset delay (jitter cap 3 s); farther
	// events overflow.
	ringBuckets = 8192
	ringMask    = ringBuckets - 1
	// chunkEvents sizes a chunk at 1 KiB of events and a 16-byte header.
	chunkEvents = 64
	// An event's rec is maxWorkers arena ids over 2^recBits indices; a sent arena
	// doubles from 1<<sentShift records (a short run allocates few it won't use).
	recBits   = 26
	recMask   = 1<<recBits - 1
	sentShift = 4
	sentLimit = 1<<recBits - 1<<sentShift
	// firstSlab is the first slab's chunk count, 32 KiB for a paper-scale
	// run's sparse buckets; each further slab adds half the total again: a
	// million pending events cost a score of allocations and no copy.
	firstSlab = 32
)

// chunk is a fixed-size run of one bucket's events, chained newest first.
type chunk struct {
	next *chunk
	n    int
	ev   [chunkEvents]event
}

// calendar is a shard's pending-event store: a ring of ringBuckets bucket
// heads, bucket idx = at / width in slot idx & ringMask, each a chain of
// chunks drawn from geometrically growing slabs through a freelist, plus a
// min-heap for events beyond the ring horizon, which drain back as the ring
// advances. Events inside a bucket are unordered; take copies a bucket out
// for the shard to order (shard.order). A push writes to the end of a chunk
// and a take unlinks one chain, so no operation touches memory in proportion
// to the whole queue. A shard also stages its cross-shard sends in chains of
// this arena's chunks (slot). The zero value is ready once width is set.
type calendar struct {
	width    time.Duration
	heads    [ringBuckets]*chunk
	base     int64     // last bucket taken; the ring admits idx < base+ringBuckets
	scan     int64     // no ring bucket before scan holds an event
	count    int       // ring buckets holding events
	overflow eventHeap // events at or beyond base+ringBuckets

	free   *chunk
	slabs  [][]chunk
	chunks int // Σ len(slabs)
	inUse  int // chunks off the freelist

	chunkPeak, overflowPeak int // retained-capacity peaks for the shrink rule
}

// push files e under bucket idx, which must be later than every bucket
// taken so far.
func (c *calendar) push(e *event, idx int64) {
	if idx >= c.base+ringBuckets {
		c.overflow.push(*e)
		c.overflowPeak = max(c.overflowPeak, len(c.overflow))
		return
	}
	head := &c.heads[idx&ringMask]
	if *head == nil {
		c.count++
	}
	*c.slot(head) = *e
	if idx < c.scan {
		c.scan = idx
	}
}

// slot returns the next free event slot of the chain at *head, putting a
// chunk from the arena in front when the newest one is full.
func (c *calendar) slot(head **chunk) *event {
	ch := *head
	if ch == nil || ch.n == chunkEvents {
		ch = c.grab()
		ch.next = *head
		*head = ch
	}
	ch.n++
	return &ch.ev[ch.n-1]
}

// grab takes a chunk off the freelist, growing the arena by one slab when
// it is empty.
func (c *calendar) grab() *chunk {
	if c.free == nil {
		slab := make([]chunk, max(firstSlab, c.chunks/2))
		c.slabs = append(c.slabs, slab)
		c.chunks += len(slab)
		c.thread(slab)
	}
	ch := c.free
	c.free = ch.next
	if c.inUse++; c.inUse > c.chunkPeak {
		c.chunkPeak = c.inUse
	}
	return ch
}

// thread puts slab's chunks, emptied, on the freelist in address order.
func (c *calendar) thread(slab []chunk) {
	for i := len(slab) - 1; i >= 0; i-- {
		ch := &slab[i]
		ch.n = 0
		ch.next, c.free = c.free, ch
	}
}

// next returns the earliest bucket holding an event, or MaxInt64 when the
// calendar is empty; the forward scan is amortised by base's advance.
func (c *calendar) next() int64 {
	nb := int64(math.MaxInt64)
	if c.count > 0 {
		for c.heads[c.scan&ringMask] == nil {
			c.scan++
		}
		nb = c.scan
	}
	if len(c.overflow) > 0 {
		if o := int64(c.overflow[0].at / c.width); o < nb {
			nb = o
		}
	}
	return nb
}

// take advances the ring to bucket b — which must not exceed next() —
// pulls newly admissible overflow back in, appends bucket b's events to dst
// and recycles its chain.
func (c *calendar) take(b int64, dst []event) []event {
	c.base = b
	for len(c.overflow) > 0 {
		idx := int64(c.overflow[0].at / c.width)
		if idx >= b+ringBuckets {
			break
		}
		e := c.overflow.pop()
		c.push(&e, idx)
	}
	if c.scan <= b {
		c.scan = b + 1
	}
	chain := c.heads[b&ringMask]
	if chain != nil {
		c.heads[b&ringMask] = nil
		c.count--
	}
	for ch := chain; ch != nil; ch = ch.next {
		dst = append(dst, ch.ev[:ch.n]...)
	}
	c.recycle(chain)
	return dst
}

// recycle returns a chain's chunks to the freelist, events left as they are
// (they hold no pointer).
func (c *calendar) recycle(ch *chunk) {
	for ch != nil {
		next := ch.next
		ch.n = 0
		ch.next, c.free = c.free, ch
		c.inUse--
		ch = next
	}
}

// retained reports the event-slot capacity the calendar holds on to.
func (c *calendar) retained() int { return c.chunks*chunkEvents + cap(c.overflow) }

// release readies the calendar for the next run: it applies the scratch
// shrink rule to the arena — slabs go, newest and largest first, while the
// run's peak use is under an eighth of what is held — and rebuilds the
// freelist over the rest, events still filed included.
func (c *calendar) release() {
	for len(c.slabs) > 0 && c.chunkPeak*8 < c.chunks {
		last := len(c.slabs) - 1
		c.chunks -= len(c.slabs[last])
		c.slabs[last] = nil
		c.slabs = c.slabs[:last]
	}
	clear(c.heads[:])
	c.free = nil
	for i := len(c.slabs) - 1; i >= 0; i-- {
		c.thread(c.slabs[i])
	}
	c.overflow = shrunk(c.overflow, c.overflowPeak)
	c.base, c.scan, c.count, c.inUse, c.chunkPeak, c.overflowPeak = 0, 0, 0, 0, 0, 0
}
