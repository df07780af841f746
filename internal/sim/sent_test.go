package sim

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"delphi/internal/node"
)

// TestEventLayout pins the sizes the queue's cost rests on — an event is a
// quarter of a cache line, in the run, the scatter buffer and the chunks, a
// heap entry three eighths, a chunk 1 KiB of events behind a 16-byte header —
// and that neither an event nor a staged send can hold a reference: the sent
// arenas are then the only place a run keeps a message.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 16 {
		t.Errorf("an event is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(heapEvent{}); got != 24 {
		t.Errorf("a heap entry is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(chunk{}); got != 16+chunkEvents*16 || chunkEvents*16 != 1024 {
		t.Errorf("a chunk is %d bytes, want a 16-byte header and 1024 bytes of events", got)
	}
	for _, v := range []any{event{}, heapEvent{}, outMsg{}} {
		typ := reflect.TypeOf(v)
		for _, f := range reflect.VisibleFields(typ) {
			switch f.Type.Kind() {
			case reflect.Int32, reflect.Uint32, reflect.Int64, reflect.Uint64, reflect.Struct:
			default:
				t.Errorf("%v.%s is a %v: an event must hold no pointer", typ, f.Name, f.Type)
			}
		}
	}
	if maxWorkers<<recBits != 1<<32 {
		t.Errorf("%d arenas of 2^%d records do not fill a uint32 rec", maxWorkers, recBits)
	}
}

// countedMsg is a value-typed message that counts the WireSize calls made on
// any copy of it; its size differs by round, so a size cached under the wrong
// message would move the byte totals.
type countedMsg struct {
	Round int32
	sized *atomic.Int64
}

func (countedMsg) Type() uint8 { return 0xF2 }
func (m countedMsg) WireSize() int {
	m.sized.Add(1)
	return 48 + int(m.Round)
}
func (countedMsg) AppendBinary(b []byte) ([]byte, error) { return append(b, 0), nil }

// caster is ping with a choice of how a round's message goes out — one
// Broadcast, or a Send to each of 0…n−1 — and, for the node that has a
// borrowed peer, one more cast through that peer's Env on its first delivery:
// inside its own step, and so outside the step of the node it sends as. With
// late set that cast instead follows the node's first own cast of a later
// round, in the same step: its record is put after that cast's and dispatched
// before it, so record order is not sequence order. A caster with a log notes
// every delivery there, as to, from and round+1, each a character from '0' up.
type caster struct {
	env      node.Env
	each     bool
	late     bool
	log      *[]byte
	borrowed *caster
	sized    *atomic.Int64
	rounds   int32
	round    int32
	heard    []int32
}

func (c *caster) cast(env node.Env, round int32) {
	m := countedMsg{Round: round, sized: c.sized}
	if !c.each {
		env.Broadcast(m)
		return
	}
	for i := 0; i < env.N(); i++ {
		env.Send(node.ID(i), m)
	}
}

func (c *caster) Init(env node.Env) {
	c.env = env
	c.heard = make([]int32, c.rounds)
	c.cast(env, 0)
}

func (c *caster) Deliver(from node.ID, m node.Message) {
	cm := m.(countedMsg)
	if c.log != nil {
		*c.log = append(*c.log, '0'+byte(c.env.Self()), '0'+byte(from), '0'+byte(cm.Round+1), ' ')
	}
	if c.borrowed != nil && !c.late {
		c.cast(c.borrowed.env, -1) // a round nobody counts
		c.borrowed = nil
	}
	if cm.Round < c.round || cm.Round >= c.rounds {
		return
	}
	c.heard[cm.Round]++
	for c.round < c.rounds && c.heard[c.round] >= int32(c.env.N()) {
		c.round++
		if c.round >= c.rounds {
			c.env.Output(float64(c.round))
			c.env.Halt()
			return
		}
		c.cast(c.env, c.round)
		if c.borrowed != nil {
			c.cast(c.borrowed.env, -1)
			c.borrowed = nil
		}
	}
}

// TestBroadcastIsNSends pins what staging one entry per Broadcast must not
// change: a process that broadcasts and its twin that sends to 0…n−1 produce
// the same Result field for field — same departures off the uplink, same
// sequence numbers and latency draws — inside a step and outside one, under
// the sequential loop and the window executor at 1, 2 and 3 workers, on a
// fresh Scratch and on a warm one. And a message is sized once per Send or
// Broadcast call, not per delivery.
func TestBroadcastIsNSends(t *testing.T) {
	const n = 12 // nodes 0 and 1 share a shard at every worker count below
	run := func(each bool, s *Scratch, opts ...Option) (*Result, int64) {
		var sized atomic.Int64
		procs := make([]node.Process, n)
		casters := make([]*caster, n)
		for i := range procs {
			casters[i] = &caster{each: each, sized: &sized, rounds: 3}
			procs[i] = casters[i]
		}
		casters[0].borrowed = casters[1]
		r, err := NewRunner(node.Config{N: n, F: 3}, CPS(), 7, procs, append(opts, WithScratch(s))...)
		if err != nil {
			t.Fatal(err)
		}
		return r.Run(), sized.Load()
	}
	for _, workers := range []int{0, 1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			bs, es := &Scratch{}, &Scratch{}
			for _, state := range []string{"fresh", "warm"} {
				bcast, bSized := run(false, bs, WithParallelWindow(workers))
				each, eSized := run(true, es, WithParallelWindow(workers))
				if !reflect.DeepEqual(bcast, each) {
					t.Errorf("%s Scratch: Broadcast and n Sends differ:\n%+v\n%+v", state, bcast, each)
				}
				// 3 rounds and the borrowed cast: 3n+1 casts of n messages.
				if bcast.TotalMsgs != (3*n+1)*n || !bcast.Stats[n-1].Halted {
					t.Fatalf("%s Scratch: %d messages sent, node %d halted=%v", state, bcast.TotalMsgs, n-1, bcast.Stats[n-1].Halted)
				}
				if int(bSized) != 3*n+1 || int(eSized) != each.TotalMsgs {
					t.Errorf("%s Scratch: WireSize called %d times for %d Broadcasts and %d times for %d Sends",
						state, bSized, 3*n+1, eSized, each.TotalMsgs)
				}
			}
			if got := scratchMessages(bs) + scratchMessages(es); got != 0 {
				t.Errorf("%d messages are reachable from the Scratches", got)
			}
		})
	}
}

// TestTieOrder pins the order of deliveries that tie on their arrival time,
// where only sequence numbers — derived from the sent records, not stored in
// the events — decide: fixed latency, no jitter, no uplink and no compute
// cost, so every arrival of a round ties. Node 0 makes its borrowed cast after
// its own round-1 cast, the corner where record order and sequence order
// differ. The expected orders were recorded from the 32-byte event that stored
// its sequence number (commit 8ea38eb): in full at n=6, where the near heap
// holds the whole queue; as a hash at n=48, where the calendar engages and the
// bucket sorts look sequence numbers up (and a parallel group passes 48).
func TestTieOrder(t *testing.T) {
	env := Environment{Latency: FixedLatency(time.Millisecond)}
	run := func(n int, each bool, s *Scratch, workers int) string {
		var sized atomic.Int64
		logs := make([][]byte, n)
		procs := make([]node.Process, n)
		casters := make([]*caster, n)
		for i := range procs {
			casters[i] = &caster{each: each, late: true, sized: &sized, rounds: 2, log: &logs[i]}
			if workers == 0 {
				casters[i].log = &logs[0] // one goroutine: the global order
			}
			procs[i] = casters[i]
		}
		casters[0].borrowed = casters[1]
		r, err := NewRunner(node.Config{N: n, F: (n - 1) / 3}, env, 7, procs, WithParallelWindow(workers), WithScratch(s))
		if err != nil {
			t.Fatal(err)
		}
		if res := r.Run(); res.TotalMsgs != (2*n+1)*n {
			t.Fatalf("n=%d workers=%d: %d messages sent, want %d", n, workers, res.TotalMsgs, (2*n+1)*n)
		}
		return string(bytes.Join(logs, nil))
	}
	for _, workers := range []int{0, 1, 2, 3} {
		want6, want48 := tieOrderSeq6, uint64(tieOrderSeq48)
		if workers > 0 {
			want6, want48 = tieOrderPar6, tieOrderPar48
		}
		for _, each := range []bool{false, true} {
			s := &Scratch{}
			for _, state := range []string{"fresh", "warm"} {
				if got := run(6, each, s, workers); got != want6 {
					t.Errorf("workers=%d each=%v %s Scratch: n=6 delivery order\n%s\nwant\n%s", workers, each, state, got, want6)
				}
				h := fnv.New64a()
				h.Write([]byte(run(48, each, s, workers)))
				if got := h.Sum64(); got != want48 {
					t.Errorf("workers=%d each=%v %s Scratch: n=48 delivery order hashes to %#x, want %#x", workers, each, state, got, want48)
				}
			}
		}
	}
}

// The delivery orders TestTieOrder expects, as to, from and round+1: the
// sequential loop's global order, and the window executor's by destination.
const (
	tieOrderSeq6 = "001 101 201 301 401 501 011 111 211 311 411 511 021 121 221 321 421 521 " +
		"031 131 231 331 431 531 041 141 241 341 441 541 051 151 251 351 451 551 " +
		"010 110 210 310 410 510 002 102 202 302 402 502 012 112 212 312 412 512 " +
		"022 122 222 322 422 522 032 132 232 332 432 532 042 142 242 342 442 542 " +
		"052 152 252 352 452 552 "
	tieOrderPar6 = "001 011 021 031 041 051 002 010 022 032 042 052 012 101 111 121 131 141 " +
		"151 102 110 122 132 142 152 112 201 211 221 231 241 251 202 210 222 232 " +
		"242 252 212 301 311 321 331 341 351 302 310 322 332 342 352 312 401 411 " +
		"421 431 441 451 402 410 422 432 442 452 412 501 511 521 531 541 551 502 " +
		"510 522 532 542 552 512 "
	tieOrderSeq48 = 0xc6e5776a73183fd5
	tieOrderPar48 = 0xe4b688234cdc19b5
)

// TestSentArenaSlabs walks the arena across every slab boundary of its first
// 2²⁰ records (the sixteen slabs that hold 1<<sentShift short of them): a rec resolves to the record put under it, before and after the
// arena grows, and no record moves — record 0's address is the same throughout
// (what a shard reading another shard's growing arena relies on).
func TestSentArenaSlabs(t *testing.T) {
	var a sentArena
	a.id = 5 << recBits
	var first *sent
	const records = 1<<20 - 1<<sentShift
	for i := uint32(0); i < records; i++ {
		rec := a.put(nil, int(i), 0)
		if rec != a.id|i {
			t.Fatalf("record %d was handed out as %#x", i, rec)
		}
		if _, off := locate(i); off > 0 && i != records-1 {
			continue
		}
		// i opens a slab (or is the last): it, its predecessor and record 0.
		if first == nil {
			first = a.at(0)
		}
		if a.at(0) != first || first.size != 0 {
			t.Fatalf("record 0 moved or changed when record %d was put", i)
		}
		if got := a.at(i).size; got != int32(i) {
			t.Fatalf("record %d reads back as %d", i, got)
		}
		if i > 0 && a.at(i-1).size != int32(i-1) {
			t.Fatalf("record %d reads back as %d once record %d opened a slab", i-1, a.at(i-1).size, i)
		}
	}
	if got := a.retained(); got != records {
		t.Errorf("%d records are held in %d slots", records, got)
	}
}

// TestSentArenaLimit exhausts an executor's index space (by count, not by
// allocating it): the next send must stop the run naming the limit, on the
// caller's goroutine under either executor, not wrap into another arena's ids.
func TestSentArenaLimit(t *testing.T) {
	for _, workers := range []int{0, 2} {
		procs := make([]node.Process, 4)
		for i := range procs {
			procs[i] = &ping{rounds: 1}
		}
		r, err := NewRunner(node.Config{N: 4, F: 1}, Local(), 1, procs, WithParallelWindow(workers))
		if err != nil {
			t.Fatal(err)
		}
		r.sent.used = sentLimit
		if r.par != nil {
			r.par.shards[1].sent.used = sentLimit
		}
		func() {
			defer func() {
				if p := fmt.Sprint(recover()); !strings.Contains(p, fmt.Sprint(sentLimit)) {
					t.Errorf("workers=%d: a send past the arena's index space ended the run with %q", workers, p)
				}
			}()
			r.Run()
		}()
	}
}

// burster is a protocol in which node 0 wakes itself every window and sends
// node n−1 twenty times as many messages as the window before.
type burster struct {
	env node.Env
}

func (b *burster) Init(env node.Env) {
	b.env = env
	if env.Self() == 0 {
		b.burst(0)
	}
}

func (b *burster) Deliver(_ node.ID, m node.Message) {
	if r := m.(pingMsg).Round + 1; b.env.Self() == 0 && r < int32(len(burstSizes)) {
		b.burst(r)
	}
}

var burstSizes = [...]int{1, 20, 400, 8000}

func (b *burster) burst(r int32) {
	for i := 0; i < burstSizes[r]; i++ {
		b.env.Send(node.ID(b.env.N()-1), pingMsg{Round: r})
	}
	b.env.Send(0, pingMsg{Round: r})
}

// TestSentArenaGrowsUnderReaders has one shard's arena grow by three slabs and
// more inside a window while another shard delivers — and, every arrival tying,
// orders by looked-up sequence number — what the first shard sent the window
// before: the reads go through the growing arena's slab table, so under -race
// this fails on any table that moves. Results must not depend on the worker
// count or the Scratch's state.
func TestSentArenaGrowsUnderReaders(t *testing.T) {
	const n = 6
	used, total := uint32(0), 0
	for r, size := range burstSizes {
		before, _ := locate(max(used, 1) - 1)
		used += uint32(size) + 1
		total += size
		if after, _ := locate(used - 1); r >= 2 && after-before < 3 {
			t.Fatalf("burst %d takes the arena from slab %d to slab %d only", r, before, after)
		}
	}
	run := func(workers int, s *Scratch) *Result {
		procs := make([]node.Process, n)
		for i := range procs {
			procs[i] = &burster{}
		}
		r, err := NewRunner(node.Config{N: n, F: 1}, Environment{Latency: FixedLatency(time.Millisecond)}, 1, procs,
			WithParallelWindow(workers), WithScratch(s))
		if err != nil {
			t.Fatal(err)
		}
		return r.Run()
	}
	base := run(1, nil)
	if got := base.Stats[n-1].MsgsRecv; got != total {
		t.Fatalf("node %d received %d messages, want %d", n-1, got, total)
	}
	s := &Scratch{}
	for _, workers := range []int{2, 3, 2} {
		if got := run(workers, s); !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d diverged from workers=1", workers)
		}
	}
}
