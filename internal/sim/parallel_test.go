package sim_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"delphi/internal/netadv"
	"delphi/internal/node"
	"delphi/internal/sim"
)

// TestParallelCompletes sanity-checks the conservative-window executor:
// under clean and adversarial networks every flood node still reaches its
// final round, outputs, and halts.
func TestParallelCompletes(t *testing.T) {
	for _, advKind := range []netadv.Kind{netadv.None, netadv.SlowF, netadv.Partition, netadv.JitterStorm} {
		var opts []sim.Option
		if advKind != netadv.None {
			adv := netadv.Adversary{Kind: advKind}
			opts = append(opts, sim.WithDelayRule(adv.Rule(21, 6, 42)))
		}
		res := floodResult(t, 21, 42, append(opts, sim.WithParallelWindow(4))...)
		for i, st := range res.Stats {
			if !st.Halted || len(st.Output) == 0 {
				t.Errorf("adv=%q: node %d did not finish (halted=%v outputs=%d)",
					advKind, i, st.Halted, len(st.Output))
			}
		}
		if res.Events == 0 || res.Time == 0 {
			t.Errorf("adv=%q: empty accounting", advKind)
		}
	}
}

// TestParallelDeterminism pins the parallel mode's reproducibility
// guarantee: fixed-seed runs are byte-identical across reruns AND across
// worker counts (per-sender sequence numbers and per-node RNG streams make
// the schedule independent of the sharding).
func TestParallelDeterminism(t *testing.T) {
	adv := netadv.Adversary{Kind: netadv.JitterStorm, Severity: 0.25}
	mk := func(workers int) *sim.Result {
		return floodResult(t, 40, 11,
			sim.WithDelayRule(adv.Rule(40, 13, 11)),
			sim.WithParallelWindow(workers))
	}
	base := mk(4)
	for _, workers := range []int{1, 4, 8} {
		if got := mk(workers); !resultsIdentical(got, base) {
			t.Errorf("workers=%d diverged from the workers=4 schedule", workers)
		}
	}
}

// TestParallelScratchReuse pins Scratch reuse in parallel mode: reusing one
// Scratch across parallel runs of different sizes — and interleaved with
// sequential runs — never changes any run's result.
func TestParallelScratchReuse(t *testing.T) {
	scratch := &sim.Scratch{}
	runs := []struct {
		n       int
		seed    int64
		workers int // 0 = sequential
	}{
		{24, 7, 4},
		{12, 3, 4}, // same worker count, smaller n: arenas rebuilt
		{24, 7, 0}, // sequential in between must not corrupt parallel arenas
		{24, 7, 4}, // repeat of run 0: must match exactly
	}
	var fresh []*sim.Result
	for _, rn := range runs {
		var opts []sim.Option
		if rn.workers > 0 {
			opts = append(opts, sim.WithParallelWindow(rn.workers))
		}
		fresh = append(fresh, floodResult(t, rn.n, rn.seed, opts...))
	}
	for i, rn := range runs {
		opts := []sim.Option{sim.WithScratch(scratch)}
		if rn.workers > 0 {
			opts = append(opts, sim.WithParallelWindow(rn.workers))
		}
		got := floodResult(t, rn.n, rn.seed, opts...)
		if !resultsIdentical(got, fresh[i]) {
			t.Errorf("run %d (n=%d workers=%d): scratch reuse changed the result", i, rn.n, rn.workers)
		}
	}
}

// TestParallelOverflowHorizon exercises the calendar ring's overflow path:
// a delay rule that parks messages ~10 s out (beyond the ring horizon at
// the 1 ms Local lookahead, 8192 windows ≈ 8.2 s) must spill them to the
// overflow heap and drain them back — with the schedule still independent
// of the worker count.
func TestParallelOverflowHorizon(t *testing.T) {
	farRule := func(at time.Duration, from, to node.ID, m node.Message) time.Duration {
		if from == 0 {
			return 10 * time.Second
		}
		return 0
	}
	mk := func(workers int) *sim.Result {
		procs := make([]node.Process, 9)
		for i := range procs {
			procs[i] = &flood{rounds: 3}
		}
		r, err := sim.NewRunner(node.Config{N: 9, F: 2}, sim.Local(), 5, procs,
			sim.WithDelayRule(farRule), sim.WithParallelWindow(workers))
		if err != nil {
			t.Fatal(err)
		}
		return r.Run()
	}
	base := mk(1)
	if base.Time < 10*time.Second {
		t.Fatalf("run finished at %v; the 10s-delayed messages were lost", base.Time)
	}
	for i, st := range base.Stats {
		if !st.Halted {
			t.Errorf("node %d never halted", i)
		}
	}
	if got := mk(3); !resultsIdentical(got, base) {
		t.Error("overflow drain order depends on worker count")
	}
}

// understatedLatency samples lat but declares floor as its MinLatency.
type understatedLatency struct {
	floor time.Duration
	lat   func(from, to node.ID) time.Duration
}

func (l understatedLatency) MinLatency() time.Duration { return l.floor }

func (l understatedLatency) Latency(from, to node.ID, _ *rand.Rand) time.Duration {
	return l.lat(from, to)
}

// TestLookaheadViolation is the mis-declared-floor table: the window width
// is the latency model's declared MinLatency, so a model whose samples
// undercut it must be detected as a causality violation (an event scheduled
// inside a committed window) and fail loudly rather than silently diverge,
// while an adaptive delay rule, which only ever adds delay, runs to
// completion.
func TestLookaheadViolation(t *testing.T) {
	const floor = 3 * time.Millisecond
	cases := []struct {
		name      string
		lat       func(from, to node.ID) time.Duration // nil: sim.Local under an adaptive rule
		wantPanic bool
	}{
		{
			name:      "latency-undercuts-floor-uniformly",
			lat:       func(_, _ node.ID) time.Duration { return time.Millisecond },
			wantPanic: true,
		},
		{
			// The sneaky case: the model honours its floor on every link
			// but one, so the floor holds for almost all traffic.
			name: "latency-undercuts-floor-on-one-link",
			lat: func(from, to node.ID) time.Duration {
				if from == 2 && to == 5 {
					return 0
				}
				return floor
			},
			wantPanic: true,
		},
		// An adaptive rule leaves untargeted and pre-history traffic
		// undelayed and delays the rest: the floor still holds.
		{name: "adaptive-rule"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) (res *sim.Result, panicked string) {
				defer func() {
					if p := recover(); p != nil {
						panicked = fmt.Sprint(p)
					}
				}()
				procs := make([]node.Process, 8)
				for i := range procs {
					procs[i] = &flood{rounds: 4}
				}
				env := sim.Local()
				opts := []sim.Option{sim.WithParallelWindow(workers)}
				if tc.lat != nil {
					env.Latency = understatedLatency{floor: floor, lat: tc.lat}
				} else {
					h := sim.NewHistory(8, netadv.HistoryEpoch)
					adv := netadv.Adversary{Kind: netadv.SlowF, Adaptive: true}
					opts = append(opts, sim.WithHistory(h), sim.WithDelayRule(adv.RuleWith(8, 2, 9, h)))
				}
				r, err := sim.NewRunner(node.Config{N: 8, F: 2}, env, 9, procs, opts...)
				if err != nil {
					t.Fatal(err)
				}
				return r.Run(), ""
			}
			// One worker runs its shard on Run's goroutine, with no pool.
			for _, workers := range []int{1, 4} {
				res, panicked := run(workers)
				if tc.wantPanic {
					if panicked == "" {
						t.Fatalf("%d workers: undercut MinLatency floor went undetected", workers)
					}
					if !strings.Contains(panicked, "causality violation") {
						t.Fatalf("%d workers: panic %q does not name the causality violation", workers, panicked)
					}
					continue
				}
				if panicked != "" {
					t.Fatalf("%d workers: sound floor panicked: %s", workers, panicked)
				}
				for i, st := range res.Stats {
					if !st.Halted {
						t.Errorf("%d workers: node %d never halted", workers, i)
					}
				}
			}
		})
	}
}

// TestAdaptiveHistoryDeterminism pins the adaptive-adversary contract at
// the simulator layer: a run whose DelayRule reads the delivered-message
// history is byte-identical across reruns AND across worker counts (the
// history commits at worker-count-independent window barriers), the history
// itself ends in the same state, and its accounting is internally
// consistent (per-node sent counts sum to the committed total).
func TestAdaptiveHistoryDeterminism(t *testing.T) {
	const n, seed = 21, 17
	for _, kind := range []netadv.Kind{netadv.SlowF, netadv.Gray, netadv.Partition, netadv.JitterStorm} {
		t.Run(string(kind), func(t *testing.T) {
			adv := netadv.Adversary{Kind: kind, Adaptive: true}
			mk := func(workers int) (*sim.Result, *sim.History) {
				h := sim.NewHistory(n, netadv.HistoryEpoch)
				res := floodResult(t, n, seed,
					sim.WithHistory(h),
					sim.WithDelayRule(adv.RuleWith(n, (n-1)/3, seed, h)),
					sim.WithParallelWindow(4))
				return res, h
			}
			base, baseH := mk(4)
			if baseH.Delivered() == 0 || baseH.Commits() == 0 {
				t.Fatalf("history never committed: delivered=%d commits=%d",
					baseH.Delivered(), baseH.Commits())
			}
			var sum int64
			for i := 0; i < n; i++ {
				sum += baseH.SentMsgs(node.ID(i))
			}
			if sum != baseH.Delivered() {
				t.Fatalf("sent counts sum to %d, delivered is %d", sum, baseH.Delivered())
			}
			for _, workers := range []int{1, 4, 8} {
				got, gotH := mk(workers)
				if !resultsIdentical(got, base) {
					t.Errorf("workers=%d: adaptive schedule diverged from workers=4", workers)
				}
				if gotH.Delivered() != baseH.Delivered() || gotH.Commits() != baseH.Commits() {
					t.Errorf("workers=%d: history diverged (delivered %d vs %d, commits %d vs %d)",
						workers, gotH.Delivered(), baseH.Delivered(), gotH.Commits(), baseH.Commits())
				}
				for i := 0; i < n; i++ {
					if gotH.HotRank(node.ID(i)) != baseH.HotRank(node.ID(i)) {
						t.Errorf("workers=%d: final ranking diverged at node %d", workers, i)
					}
				}
			}
		})
	}
}

// TestHistoryNodeCountValidation pins NewRunner's rejection of a history
// sized for a different system.
func TestHistoryNodeCountValidation(t *testing.T) {
	procs := make([]node.Process, 4)
	for i := range procs {
		procs[i] = &flood{rounds: 1}
	}
	h := sim.NewHistory(8, netadv.HistoryEpoch)
	if _, err := sim.NewRunner(node.Config{N: 4, F: 1}, sim.Local(), 1, procs, sim.WithHistory(h)); err == nil {
		t.Fatal("NewRunner accepted a history with the wrong node count")
	}
}

// noFloorLatency is a latency model without a MinLatency declaration.
type noFloorLatency struct{}

func (noFloorLatency) Latency(_, _ node.ID, _ *rand.Rand) time.Duration { return time.Millisecond }

// TestParallelConfigErrors pins NewRunner's parallel-mode validation.
func TestParallelConfigErrors(t *testing.T) {
	procs := make([]node.Process, 4)
	for i := range procs {
		procs[i] = &flood{rounds: 1}
	}
	cfg := node.Config{N: 4, F: 1}
	cases := []struct {
		name string
		env  sim.Environment
		opts []sim.Option
	}{
		{"no MinLatency floor", sim.Environment{Name: "x", Latency: noFloorLatency{}},
			[]sim.Option{sim.WithParallelWindow(2)}},
		{"zero-width lookahead", sim.Environment{Name: "x", Latency: sim.FixedLatency(0)},
			[]sim.Option{sim.WithParallelWindow(2)}},
	}
	for _, tc := range cases {
		if _, err := sim.NewRunner(cfg, tc.env, 1, procs, tc.opts...); err == nil {
			t.Errorf("%s: NewRunner accepted an invalid parallel config", tc.name)
		}
	}
}
