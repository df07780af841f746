package run_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/node"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// oneShotSpecs are four runs that share nothing a Scratch keys its arenas
// on: Dolev n=64 sequential and on two workers, Delphi n=16, FIN n=8.
func oneShotSpecs() []run.RunSpec {
	params := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2}
	spec := func(proto run.Protocol, n, f, workers int) run.RunSpec {
		seed := run.TrialSeed(2020, n)
		return run.RunSpec{
			Protocol: proto, N: n, F: f, Env: sim.AWS(), Seed: seed,
			Inputs: bench.OracleInputs(n, 41000, 20, seed), Delphi: params, SimWorkers: workers,
		}
	}
	return []run.RunSpec{
		spec(run.ProtoDolev, 64, 12, 0),
		spec(run.ProtoDolev, 64, 12, 2),
		spec(run.ProtoDelphi, 16, 5, 0),
		spec(run.ProtoFIN, 8, 2, 0),
	}
}

// freshStats runs each spec on a Scratch of its own: a fresh session's.
func freshStats(t *testing.T, specs []run.RunSpec) []*run.RunStats {
	t.Helper()
	want := make([]*run.RunStats, len(specs))
	for i, spec := range specs {
		s, err := run.OpenSim(spec)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = s.Run(spec); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// shortFloor is a latency model that undercuts the floor it declares, so a
// parallel run on it schedules into a committed window and panics.
type shortFloor struct{}

func (shortFloor) Latency(_, _ node.ID, _ *rand.Rand) time.Duration { return time.Millisecond }
func (shortFloor) MinLatency() time.Duration                        { return 5 * time.Millisecond }

// TestOneShotReuseInvisible pins that Run borrowing the previous one-shot
// run's Scratch shows in nothing it returns: in an order where the node
// count, the protocol and the executor all change between consecutive calls,
// every Run equals the same spec on a fresh Scratch field for field — and
// every Run but the first did find a Scratch in the slot (the collector is
// held off so that it must). A run that panics strands the Scratch it
// borrowed, and the run after it is correct on a new one.
func TestOneShotReuseInvisible(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	specs := oneShotSpecs()
	want := freshStats(t, specs)
	for i, k := range []int{0, 1, 2, 3, 1, 0, 3, 2, 0, 2, 1, 3} {
		if i > 0 && !run.SlotHeld() {
			t.Fatalf("call %d: the slot is empty after a completed run", i)
		}
		got, err := run.Run(specs[k])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[k]) {
			t.Errorf("call %d (%s n=%d workers=%d): Run on the previous run's Scratch differs from a fresh one:\n got %+v\nwant %+v",
				i, specs[k].Protocol, specs[k].N, specs[k].SimWorkers, got, want[k])
		}
	}

	bad := specs[1]
	bad.Env = sim.Environment{Name: "short-floor", Latency: shortFloor{}}
	panicked := func() (p any) {
		defer func() { p = recover() }()
		_, _ = run.Run(bad)
		return nil
	}()
	if panicked == nil {
		t.Fatal("a run under a violated latency floor did not panic")
	}
	if run.SlotHeld() {
		t.Error("the Scratch of a run that panicked was handed on")
	}
	for k := range specs {
		if got, err := run.Run(specs[k]); err != nil || !reflect.DeepEqual(got, want[k]) {
			t.Errorf("%s n=%d after a panicked run: %+v, %v; want %+v", specs[k].Protocol, specs[k].N, got, err, want[k])
		}
	}
}

// TestOneShotConcurrent runs Run from four goroutines at once: one finds the
// slot's Scratch, the others allocate, every result is the fresh one, and
// under -race no two runs touch one Scratch.
func TestOneShotConcurrent(t *testing.T) {
	specs := oneShotSpecs()
	want := freshStats(t, specs)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				k := (g + i) % len(specs)
				if got, err := run.Run(specs[k]); err != nil || !reflect.DeepEqual(got, want[k]) {
					t.Errorf("goroutine %d call %d: %+v, %v; want %+v", g, i, got, err, want[k])
				}
			}
		}()
	}
	wg.Wait()
}

// TestOneShotRetention states the retention bound. A collection right after
// a run leaves the Scratch in the slot: one that ends between two
// back-to-back runs must not make the next build its arenas anew. With no run
// in flight, the slot is empty once the holder's finalizer has had its turn
// and one more collection has passed.
func TestOneShotRetention(t *testing.T) {
	if _, err := run.Run(oneShotSpecs()[1]); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if !run.SlotHeld() {
		t.Fatal("the first collection after a run took its Scratch from the slot")
	}
	for i := 0; run.SlotHeld(); i++ {
		if i == 100 {
			t.Fatal("the slot still holds a Scratch after 100 collections with no run in flight")
		}
		time.Sleep(time.Millisecond) // the finalizer goroutine's turn
		runtime.GC()
	}
}

// TestOneShotAllocGate is the number BenchmarkSimParallel's warm Scratch hid:
// with the slot empty, a Dolev n=256 run on two workers allocates its arenas;
// the same Run again allocates the protocol's state and the Result only,
// 1168 KiB, and must stay under 1.25 MiB. The bound is absolute: a ratio to the
// first run trips when the arenas get smaller (6127 KiB at 32-byte events).
func TestOneShotAllocGate(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // the slot must survive between the two
	seed := run.TrialSeed(2021, 0)
	spec := run.RunSpec{
		Protocol: run.ProtoDolev, N: 256, F: 51, Env: sim.AWS(), Seed: seed,
		Inputs:     bench.OracleInputs(256, 41000, 8, seed),
		Delphi:     core.Params{S: 0, E: 100000, Rho0: 2, Delta: 8, Eps: 2},
		SimWorkers: 2,
	}
	run.EmptySlot()
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := run.Run(spec); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := allocated(), allocated()
	t.Logf("first run %d KiB, second %d KiB (%.1f %%)", first>>10, second>>10, 100*float64(second)/float64(first))
	if second > 1280<<10 {
		t.Errorf("the second one-shot run allocated %d bytes, over 1.25 MiB: it built arenas of its own", second)
	}
}
