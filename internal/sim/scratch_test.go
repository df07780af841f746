package sim

import (
	"reflect"
	"testing"
	"time"

	"delphi/internal/node"
)

func TestShrunkCap(t *testing.T) {
	cases := []struct {
		cap, peak, want int
	}{
		{0, 0, 0},                   // below the floor: untouched
		{64, 1, 64},                 // below scratchShrinkMin: untouched
		{128, 100, 128},             // peak above 1/8: retained
		{128, 16, 64},               // one halving
		{4096, 50, 256},             // shrinks until peak > cap/8
		{1 << 20, 0, 64},            // idle buffer collapses to the floor
		{1 << 20, 1 << 19, 1 << 20}, // hot buffer untouched
	}
	for _, tc := range cases {
		if got := shrunkCap(tc.cap, tc.peak); got != tc.want {
			t.Errorf("shrunkCap(%d, %d) = %d, want %d", tc.cap, tc.peak, tc.want, tc.want)
		}
	}
}

// pingMsg/ping is a minimal all-to-all protocol for white-box scratch
// tests (the richer flood protocol lives in the sim_test package).
type pingMsg struct{ Round int32 }

func (pingMsg) Type() uint8                    { return 0xF1 }
func (pingMsg) WireSize() int                  { return 48 }
func (pingMsg) MarshalBinary() ([]byte, error) { return []byte{0}, nil }

type ping struct {
	env    node.Env
	rounds int32
	round  int32
	heard  []int32
}

func (p *ping) Init(env node.Env) {
	p.env = env
	p.heard = make([]int32, p.rounds)
	env.Broadcast(pingMsg{Round: 0})
}

func (p *ping) Deliver(_ node.ID, m node.Message) {
	pm, ok := m.(pingMsg)
	if !ok || pm.Round < p.round || pm.Round >= p.rounds {
		return
	}
	p.heard[pm.Round]++
	for p.round < p.rounds && p.heard[p.round] >= int32(p.env.N()) {
		p.round++
		if p.round >= p.rounds {
			p.env.Output(float64(p.round))
			p.env.Halt()
			return
		}
		p.env.Broadcast(pingMsg{Round: p.round})
	}
}

// scratchMessages counts the messages reachable from s: every event slot of
// every retained backing array, in use or not, and the staged-send buffer.
func scratchMessages(s *Scratch) int {
	total := 0
	count := func(evs []event) {
		for _, e := range evs[:cap(evs)] {
			if e.msg != nil {
				total++
			}
		}
	}
	count(s.near)
	count(s.run)
	if c := s.cal; c != nil {
		count(c.overflow)
		for _, slab := range c.slabs {
			for i := range slab {
				count(slab[i].ev[:])
			}
		}
	}
	for _, om := range s.outMsgs[:cap(s.outMsgs)] {
		if om.msg != nil {
			total++
		}
	}
	return total
}

func runPing(t *testing.T, n int, s *Scratch, opts ...Option) {
	t.Helper()
	procs := make([]node.Process, n)
	for i := range procs {
		procs[i] = &ping{rounds: 3}
	}
	opts = append(opts, WithScratch(s))
	r, err := NewRunner(node.Config{N: n, F: (n - 1) / 3}, AWS(), 7, procs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if res := r.Run(); res.Events == 0 {
		t.Fatal("no events processed")
	}
}

// TestScratchShrinksAfterLargeRun pins the growth policy fixed for n=1000+
// sweeps: one big trial in a mixed matrix must not pin its high-water
// storage for the rest of the sweep. After a large-n run the retained
// backing arrays shrink (mirroring the runtime inbox-ring rule: halve while
// peak occupancy fits in an eighth of capacity) as soon as a small run
// exposes the idle capacity — while steady-state reuse at one size sits
// inside the hysteresis band and keeps its buffers.
func TestScratchShrinksAfterLargeRun(t *testing.T) {
	s := &Scratch{}
	runPing(t, 12, s)
	small := s.retainedEvents()
	if small == 0 {
		t.Fatal("no retained capacity after first run")
	}
	// Steady state at one size: capacity must not thrash.
	runPing(t, 12, s)
	if got := s.retainedEvents(); got < small/2 {
		t.Errorf("steady-state reuse shrank retained capacity %d -> %d", small, got)
	}

	runPing(t, 192, s)
	big := s.retainedEvents()
	if big <= 4*small {
		t.Fatalf("n=192 run retained %d event slots, not clearly above the small run's %d", big, small)
	}
	// The run drained its buckets through the run and key buffers (36 k
	// messages in flight over ~300 buckets): both come back, keys at twice
	// the run's size, and both are in the count above.
	bigRun, bigKeys := cap(s.run), cap(s.keys)
	if bigRun < 128 || bigKeys < 2*bigRun {
		t.Fatalf("n=192 run handed back a %d-event run buffer and %d keys", bigRun, bigKeys)
	}
	runPing(t, 192, s)
	if cap(s.run) != bigRun || cap(s.keys) != bigKeys {
		t.Errorf("steady-state reuse moved the run buffer %d -> %d, the keys %d -> %d", bigRun, cap(s.run), bigKeys, cap(s.keys))
	}
	runPing(t, 12, s)
	after := s.retainedEvents()
	if after > big/4 {
		t.Errorf("after a small run the big run's capacity lingers: %d of %d event slots retained", after, big)
	}
	if cap(s.run) > bigRun/2 || cap(s.keys) > bigKeys/2 {
		t.Errorf("after a small run %d of %d run slots and %d of %d keys are still retained", cap(s.run), bigRun, cap(s.keys), bigKeys)
	}

	// Same policy for the parallel arenas.
	runPing(t, 192, s, WithParallelWindow(4))
	bigPar := s.retainedEvents()
	runPing(t, 12, s, WithParallelWindow(4))
	afterPar := s.retainedEvents()
	if afterPar > bigPar/4 {
		t.Errorf("parallel arenas linger after a small run: %d of %d event slots retained", afterPar, bigPar)
	}
}

// TestEarlyStopLeaksNoMessage stops a run on its time bound with the calendar
// engaged and a bucket's run half drained (n=64 puts 4096 messages in flight;
// 80 ms is inside the first round's arrivals): the Scratch it hands back must
// hold storage only, no message — not in the run's undelivered slots, the
// near heap, the calendar's chunks or the staged-send buffer — and the next
// run on it must match a fresh one.
func TestEarlyStopLeaksNoMessage(t *testing.T) {
	newRun := func(opts ...Option) *Runner {
		procs := make([]node.Process, 64)
		for i := range procs {
			procs[i] = &ping{rounds: 3}
		}
		r, err := NewRunner(node.Config{N: 64, F: 21}, AWS(), 7, procs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	s := &Scratch{}
	r := newRun(WithScratch(s), WithMaxTime(80*time.Millisecond))
	res := r.Run()
	if res.Events == 0 || r.cal == nil || r.runPos == 0 || r.runPos == len(r.run) {
		t.Fatalf("the run stopped after %d events at %d of a %d-event run; want a half-drained run over an engaged calendar",
			res.Events, r.runPos, len(r.run))
	}
	if got := scratchMessages(s); got != 0 {
		t.Errorf("%d messages are reachable from the Scratch of an early-stopped run", got)
	}
	want := newRun().Run()
	if got := newRun(WithScratch(s)).Run(); !reflect.DeepEqual(got, want) {
		t.Error("the run after an early-stopped one differs from a fresh run")
	}
	if got := scratchMessages(s); got != 0 {
		t.Errorf("%d messages are reachable from the Scratch of a completed run", got)
	}
}

// TestScratchNodeSlabReset guards the nodes-slab reuse: a run adopting a
// larger previous run's slab must see zeroed state.
func TestScratchNodeSlabReset(t *testing.T) {
	buf := []nodeState{{busyUntil: time.Hour, sendSeq: 9, halted: true}, {uplinkFree: time.Minute}}
	got := resetNodes(buf, 2)
	for i, ns := range got {
		if ns != (nodeState{}) {
			t.Errorf("slot %d not zeroed: %+v", i, ns)
		}
	}
	if &got[0] != &buf[0] {
		t.Error("backing array not reused")
	}
}

// TestSequentialOverflowHorizon is the sequential counterpart of
// TestParallelOverflowHorizon: with the queue large enough to engage the
// calendar (n=160 puts 25600 messages in flight), a delay rule that parks
// the last sender's messages 10 s out — past the ring horizon, 8192 buckets
// ≈ 4.3 s — must spill them to the overflow heap and drain them back in
// order. (The last sender: its Init runs with 159 broadcasts already queued.)
func TestSequentialOverflowHorizon(t *testing.T) {
	const n = 160
	farRule := func(at time.Duration, from, to node.ID, m node.Message) time.Duration {
		if from == n-1 {
			return 10 * time.Second
		}
		return 0
	}
	s := &Scratch{}
	procs := make([]node.Process, n)
	for i := range procs {
		procs[i] = &ping{rounds: 3}
	}
	r, err := NewRunner(node.Config{N: n, F: (n - 1) / 3}, AWS(), 7, procs, WithDelayRule(farRule), WithScratch(s))
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	if res.Time < 3*10*time.Second {
		t.Fatalf("run finished at %v; the 10s-delayed messages of three rounds were lost", res.Time)
	}
	for i, st := range res.Stats {
		if !st.Halted {
			t.Errorf("node %d never halted", i)
		}
	}
	if s.cal == nil || cap(s.cal.overflow) == 0 {
		t.Error("the run never used the calendar's overflow heap")
	}
}
