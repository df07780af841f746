package bench

import (
	"runtime"
	"runtime/debug"
	"testing"

	"delphi/internal/run"
	"delphi/internal/sim"
)

// TestDelphiAllocGate holds the BinAA engine's structural saving, counting
// the votes a round agrees on once per round instead of once per instance.
// The benchmark's sim-delphi workload at seed 1 opens with Delphi n=40, t=13
// on sim.AWS(); that run, on a warm Scratch, made 252 285 allocations while
// the engine tallied every vote per (instance, round), 63 805 with implicit
// tallies for agreeing bundle votes, and 32 250 once agreeing bitmap votes
// stayed implicit too (amd64, Go 1.24). The bound is two-thirds of 63 805.
func TestDelphiAllocGate(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // the warm Scratch must stay in the slot
	seed := run.TrialSeed(1, 0)
	spec := run.RunSpec{
		Protocol: run.ProtoDelphi, N: 40, F: 13, Env: sim.AWS(), Seed: seed,
		Inputs: OracleInputs(40, 41000, 20, seed), Delphi: OracleDefaultParams(),
	}
	if _, err := run.Run(spec); err != nil { // warms the Scratch
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := run.Run(spec); err != nil {
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
		proto run.Protocol
		bound uint64
	}{{run.ProtoFIN, (33225 + 8852) / 2}, {run.ProtoAbraham, (37131 + 12131) / 2}} {
		seed := run.TrialSeed(1, 0)
		spec := run.RunSpec{
			Protocol: c.proto, N: 16, F: c.proto.Faults(16), Env: sim.AWS(), Seed: seed,
			Inputs: OracleInputs(16, 41000, 20, seed), Delphi: OracleDefaultParams(),
		}
		if _, err := run.Run(spec); err != nil { // warms the Scratch
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := run.Run(spec); err != nil {
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
