package bench

import (
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"delphi/internal/core"
	"delphi/internal/node"
	"delphi/internal/sim"
)

// oneShotSpecs are four runs that share nothing a Scratch keys its arenas
// on: Dolev n=64 sequential and on two workers, Delphi n=16, FIN n=8.
func oneShotSpecs() []RunSpec {
	params := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2}
	spec := func(proto Protocol, n, f, workers int) RunSpec {
		seed := TrialSeed(2020, n)
		return RunSpec{
			Protocol: proto, N: n, F: f, Env: sim.AWS(), Seed: seed,
			Inputs: OracleInputs(n, 41000, 20, seed), Delphi: params, SimWorkers: workers,
		}
	}
	return []RunSpec{
		spec(ProtoDolev, 64, 12, 0),
		spec(ProtoDolev, 64, 12, 2),
		spec(ProtoDelphi, 16, 5, 0),
		spec(ProtoFIN, 8, 2, 0),
	}
}

// freshStats runs each spec on a Scratch of its own.
func freshStats(t *testing.T, specs []RunSpec) []*RunStats {
	t.Helper()
	want := make([]*RunStats, len(specs))
	for i, spec := range specs {
		var err error
		if want[i], err = runSim(spec, new(sim.Scratch)); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// slotHeld reports whether the one-shot slot holds a Scratch.
func slotHeld() bool {
	lastScratch.Lock()
	defer lastScratch.Unlock()
	return lastScratch.p.Value() != nil
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
		if i > 0 && !slotHeld() {
			t.Fatalf("call %d: the slot is empty after a completed run", i)
		}
		got, err := Run(specs[k])
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
		_, _ = Run(bad)
		return nil
	}()
	if panicked == nil {
		t.Fatal("a run under a violated latency floor did not panic")
	}
	if slotHeld() {
		t.Error("the Scratch of a run that panicked was handed on")
	}
	for k := range specs {
		if got, err := Run(specs[k]); err != nil || !reflect.DeepEqual(got, want[k]) {
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
				if got, err := Run(specs[k]); err != nil || !reflect.DeepEqual(got, want[k]) {
					t.Errorf("goroutine %d call %d: %+v, %v; want %+v", g, i, got, err, want[k])
				}
			}
		}()
	}
	wg.Wait()
}

// TestOneShotRetention states the retention bound: what the slot keeps alive
// is one Scratch until the next collection — with no run in flight, two
// collections leave it empty.
func TestOneShotRetention(t *testing.T) {
	if _, err := Run(oneShotSpecs()[1]); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	if slotHeld() {
		t.Error("the slot still holds a Scratch after two collections with no run in flight")
	}
}

// TestOneShotAllocGate is the number BenchmarkSimParallel's warm Scratch hid:
// with the slot empty, a Dolev n=256 run on two workers allocates its arenas;
// the same Run again allocates the protocol's state and the Result only,
// 1168 KiB, and must stay under 1.25 MiB. The bound is absolute: a ratio to the
// first run trips when the arenas get smaller (6127 KiB at 32-byte events).
func TestOneShotAllocGate(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // the slot must survive between the two
	seed := TrialSeed(2021, 0)
	spec := RunSpec{
		Protocol: ProtoDolev, N: 256, F: 51, Env: sim.AWS(), Seed: seed,
		Inputs:     OracleInputs(256, 41000, 8, seed),
		Delphi:     core.Params{S: 0, E: 100000, Rho0: 2, Delta: 8, Eps: 2},
		SimWorkers: 2,
	}
	borrowScratch() // empty the slot
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(spec); err != nil {
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

// TestDelphiAllocGate holds the BinAA engine's structural saving, counting
// the votes a round agrees on once per round instead of once per instance.
// The benchmark's sim-delphi workload at seed 1 opens with Delphi n=40, t=13
// on sim.AWS(); that run, on a warm Scratch, made 252 285 allocations while
// the engine tallied every vote per (instance, round), 63 805 with implicit
// tallies for agreeing bundle votes, and 32 250 once agreeing bitmap votes
// stayed implicit too (amd64, Go 1.24). The bound is two-thirds of 63 805.
func TestDelphiAllocGate(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // the warm Scratch must stay in the slot
	seed := TrialSeed(1, 0)
	spec := RunSpec{
		Protocol: ProtoDelphi, N: 40, F: 13, Env: sim.AWS(), Seed: seed,
		Inputs: OracleInputs(40, 41000, 20, seed), Delphi: OracleDefaultParams(),
	}
	if _, err := Run(spec); err != nil { // warms the Scratch
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d allocations", allocs)
	if allocs > 63805*2/3 {
		t.Errorf("a warm sim-delphi run made %d allocations, over two-thirds of the 63 805 made while bitmap votes materialised tallies", allocs)
	}
}

// TestBaselineAllocGate holds the baselines' vote counting in node.Set
// bitsets and dense tables instead of maps. A warm FIN n=16 run (t=5,
// sim.AWS(), the inputs and seed TestDelphiAllocGate uses) made 33 225
// allocations while rbc, aba and coin counted in maps and 8 852 after; Abraham
// et al. at n=16 made 37 131 and 12 131 (amd64, Go 1.24). Each bound is
// halfway between the two.
func TestBaselineAllocGate(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // the warm Scratch must stay in the slot
	for _, c := range []struct {
		proto Protocol
		bound uint64
	}{{ProtoFIN, (33225 + 8852) / 2}, {ProtoAbraham, (37131 + 12131) / 2}} {
		seed := TrialSeed(1, 0)
		spec := RunSpec{
			Protocol: c.proto, N: 16, F: c.proto.Faults(16), Env: sim.AWS(), Seed: seed,
			Inputs: OracleInputs(16, 41000, 20, seed), Delphi: OracleDefaultParams(),
		}
		if _, err := Run(spec); err != nil { // warms the Scratch
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(spec); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocs := after.Mallocs - before.Mallocs
		t.Logf("%s: %d allocations", c.proto, allocs)
		if allocs > c.bound {
			t.Errorf("a warm %s n=16 run made %d allocations, over %d, halfway to the map-keyed counting's", c.proto, allocs, c.bound)
		}
	}
}
