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

func (pingMsg) Type() uint8                           { return 0xF1 }
func (pingMsg) WireSize() int                         { return 48 }
func (pingMsg) AppendBinary(b []byte) ([]byte, error) { return append(b, 0), nil }

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

// scratchMessages counts the messages reachable from s. A run holds them in
// its shards' sent arenas only — nothing else in a Scratch has a pointer to
// hold one with (TestEventLayout) — so every record of every retained slab is
// looked at, in use or not.
func scratchMessages(s *Scratch) (total int) {
	for _, sh := range s.shards {
		total += arenaMessages(&sh.sent)
	}
	return total
}

// arenaMessages counts the messages a's retained slabs hold.
func arenaMessages(a *sentArena) (total int) {
	for _, slab := range a.slabs {
		for i := 0; slab != nil && i < len(*slab); i++ {
			if (*slab)[i].msg != nil {
				total++
			}
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

	runPing(t, 400, s)
	big := s.retainedEvents()
	if big <= 4*small {
		t.Fatalf("n=400 run retained %d event slots, not clearly above the small run's %d", big, small)
	}
	// The run drained its windows through the run and key buffers (160 k
	// messages in flight over ~300 windows): both come back, keys at twice
	// the run's size, and both are in the count above. Its calendar peaked
	// at over eight times the small run's chunks (a window with an event
	// takes a chunk, and the small run's ~140 sparse windows a chunk each),
	// which is what the release rule needs to give them back.
	sh := s.shards[0]
	bigRun, bigKeys := cap(sh.run), cap(sh.keys)
	if bigRun < 128 || bigKeys < 2*bigRun {
		t.Fatalf("n=400 run handed back a %d-event run buffer and %d keys", bigRun, bigKeys)
	}
	runPing(t, 400, s)
	if cap(sh.run) != bigRun || cap(sh.keys) != bigKeys {
		t.Errorf("steady-state reuse moved the run buffer %d -> %d, the keys %d -> %d", bigRun, cap(sh.run), bigKeys, cap(sh.keys))
	}
	runPing(t, 12, s)
	after := s.retainedEvents()
	if after > big/4 {
		t.Errorf("after a small run the big run's capacity lingers: %d of %d event slots retained", after, big)
	}
	if cap(sh.run) > bigRun/2 || cap(sh.keys) > bigKeys/2 {
		t.Errorf("after a small run %d of %d run slots and %d of %d keys are still retained", cap(sh.run), bigRun, cap(sh.keys), bigKeys)
	}

	// Same policy for the parallel arenas.
	runPing(t, 400, s, WithParallelWindow(4))
	bigPar := s.retainedEvents()
	runPing(t, 12, s, WithParallelWindow(4))
	afterPar := s.retainedEvents()
	if afterPar > bigPar/4 {
		t.Errorf("parallel arenas linger after a small run: %d of %d event slots retained", afterPar, bigPar)
	}
}

// TestEarlyStopLeaksNoMessage stops a run on its time bound with events
// still filed in its calendars (n=64 puts 4096 messages in flight; the stop
// falls inside the first rounds' arrivals): the Scratch it hands back must
// hold storage only, no message — not in the calendars' chunks, the window
// buffers or the staged-send chains — and the next run on it must match a
// fresh one: on one shard run on the caller's goroutine (sequential), and
// on two workers (parallel), where the stop also follows a window some node
// broadcast in: its sends are staged for the other shard in chains nobody
// will walk.
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
	for _, tc := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			par := WithParallelWindow(tc.workers)
			// Without a Scratch nothing is handed back, so what a stop leaves
			// behind can be looked at.
			pending := func(r *Runner) bool {
				filed, staged := 0, len(r.shards) == 1
				for _, sh := range r.shards {
					filed += sh.cal.count
					for _, chains := range sh.staged {
						staged = staged || chains[1-sh.id] != nil
					}
				}
				return filed > 0 && staged
			}
			var stop Option
			for ms := 80; ; ms++ {
				if ms == 1000 {
					t.Fatal("no stop in [80, 1000) ms leaves events filed (and staged across shards)")
				}
				stop = WithMaxTime(time.Duration(ms) * time.Millisecond)
				r := newRun(par, stop)
				if res := r.Run(); res.Events > 0 && pending(r) {
					break
				}
			}
			s := &Scratch{}
			newRun(par, stop, WithScratch(s)).Run()
			checkNoLeak(t, s, func(opts ...Option) *Result { return newRun(append(opts, par)...).Run() })
		})
	}
}

// checkNoLeak checks that s, handed back by an early-stopped run, holds no
// message, and that a full run on it equals a fresh one and leaves none.
func checkNoLeak(t *testing.T, s *Scratch, run func(...Option) *Result) {
	t.Helper()
	if got := scratchMessages(s); got != 0 {
		t.Errorf("%d messages are reachable from the Scratch of an early-stopped run", got)
	}
	if got, want := run(WithScratch(s)), run(); !reflect.DeepEqual(got, want) {
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

// TestSequentialOverflowHorizon is the AWS-scale counterpart of
// TestParallelOverflowHorizon on the default executor, one shard run on the
// caller's goroutine: with n=160 putting 25600 messages in flight, a delay
// rule that parks the last sender's messages 10 s out — past the ring
// horizon, 8192 windows of 0.4 ms ≈ 3.3 s — must spill them to the overflow
// heap and drain them back in order. (The last sender: its Init runs with
// 159 broadcasts already queued.)
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
	if cap(s.shards[0].cal.overflow) == 0 {
		t.Error("the run never used the calendar's overflow heap")
	}
}

// TestParallelStagingChains drives the staging chains past one chunk and the
// ring past its horizon at once: at n=256 every shard stages (n/workers)² ≥
// 1024 Init sends for each other shard — chains of 16 chunks and more where
// chunkEvents is 64 — and a delay rule parks one sender's messages 10 s out,
// beyond the AWS ring's ~3.3 s, so they reach the overflow heap through a
// staging chain. Results must be identical across worker counts and across a
// fresh Scratch, one whose shards were just rebuilt for another worker count,
// and a warm one — the three states a chain's chunks can come from.
func TestParallelStagingChains(t *testing.T) {
	const n = 256
	farRule := func(at time.Duration, from, to node.ID, m node.Message) time.Duration {
		if from == n/2 {
			return 10 * time.Second
		}
		return 0
	}
	run := func(workers int, s *Scratch) *Result {
		procs := make([]node.Process, n)
		for i := range procs {
			procs[i] = &ping{rounds: 2}
		}
		opts := []Option{WithDelayRule(farRule), WithParallelWindow(workers)}
		if s != nil {
			opts = append(opts, WithScratch(s))
		}
		r, err := NewRunner(node.Config{N: n, F: (n - 1) / 3}, AWS(), 7, procs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return r.Run()
	}
	base := run(1, nil)
	if base.Time < 2*10*time.Second {
		t.Fatalf("run finished at %v; the 10s-delayed messages of two rounds were lost", base.Time)
	}
	for i, st := range base.Stats {
		if !st.Halted {
			t.Errorf("node %d never halted", i)
		}
	}
	s := &Scratch{}
	for _, workers := range []int{2, 3, 8, 1} {
		if per := n / workers; per*per <= chunkEvents {
			t.Fatalf("workers=%d: %d Init sends per shard pair fit one chunk", workers, per*per)
		}
		for _, tc := range []struct {
			state string
			s     *Scratch
		}{{"no", nil}, {"a rebuilt", s}, {"a warm", s}} {
			if got := run(workers, tc.s); !reflect.DeepEqual(got, base) {
				t.Errorf("workers=%d on %s Scratch diverged from workers=1 on none", workers, tc.state)
			}
		}
		overflowed := false
		for _, sh := range s.shards {
			overflowed = overflowed || cap(sh.cal.overflow) > 0
		}
		if !overflowed {
			t.Errorf("workers=%d: no shard's calendar used its overflow heap", workers)
		}
		if got := scratchMessages(s); got != 0 {
			t.Errorf("workers=%d: %d messages are reachable from the Scratch", workers, got)
		}
	}
}
