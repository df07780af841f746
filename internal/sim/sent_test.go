package sim

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"unsafe"

	"delphi/internal/node"
)

// TestEventLayout pins the sizes the queue's cost rests on: an event is half
// a cache line — in the run, the scatter buffer and the heaps, which start on
// one, none straddles two — and a chunk is 2 KiB of them behind a 16-byte
// header.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 32 {
		t.Errorf("an event is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(chunk{}); got != 16+chunkEvents*32 || chunkEvents*32 != 2048 {
		t.Errorf("a chunk is %d bytes, want a 16-byte header and 2048 bytes of events", got)
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
func (countedMsg) MarshalBinary() ([]byte, error) { return []byte{0}, nil }

// caster is ping with a choice of how a round's message goes out — one
// Broadcast, or a Send to each of 0…n−1 — and, for the node that has a
// borrowed peer, one more cast through that peer's Env on its first delivery:
// inside its own step, and so outside the step of the node it sends as.
type caster struct {
	env      node.Env
	each     bool
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

func (c *caster) Deliver(_ node.ID, m node.Message) {
	if c.borrowed != nil {
		c.cast(c.borrowed.env, -1) // a round nobody counts
		c.borrowed = nil
	}
	cm := m.(countedMsg)
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
