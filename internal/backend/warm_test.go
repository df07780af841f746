package backend_test

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"delphi/internal/aaa"
	"delphi/internal/acs"
	"delphi/internal/bench"
	"delphi/internal/dora"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// TestWarmTrialAllocs: on a warm tcp session one FIN n=16 trial makes at most
// 900 allocations of at most 200 KiB in all. Each fabric slot keeps its
// node's decode arena, the arena it lends the protocols to carve what they
// send from, its send buffers and its frame pool from trial to trial, so a
// warm trial allocates per node, not per message; and a node's vote rows,
// coin states and channel keys are sized by the rounds and channels it uses,
// not by their bounds.
func TestWarmTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	spec, n := finSpec16(), 16
	s := openSession(t, run.BackendTCP, n, false)
	defer s.Close()
	trial := func() {
		if _, err := s.Run(spec); err != nil {
			t.Fatal(err)
		}
	}
	for range 10 {
		trial()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(10, trial)
	runtime.ReadMemStats(&after)
	// AllocsPerRun's warm-up call is an eleventh trial.
	kib := float64(after.TotalAlloc-before.TotalAlloc) / 11 / 1024
	t.Logf("%.0f allocations, %.1f KiB a trial", allocs, kib)
	if allocs > 900 {
		t.Errorf("a warm FIN n=%d trial made %.0f allocations, want at most 900", n, allocs)
	}
	if kib > 200 {
		t.Errorf("a warm FIN n=%d trial allocated %.1f KiB, want at most 200", n, kib)
	}
}

// finSpec16 is the warm-allocation tests' FIN n=16 run.
func finSpec16() run.RunSpec {
	const n, f, seed = 16, 5, 7
	return run.RunSpec{Protocol: run.ProtoFIN, N: n, F: f, Env: sim.AWS(), Seed: seed,
		Inputs: bench.OracleInputs(n, 41000, 20, seed), Delphi: quickParams}
}

// TestWarmOneShotAllocs: a warm one-shot FIN n=16 run.Run makes at most 550
// allocations. It borrows the last one-shot run's sim.Scratch, which keeps the
// event queue and, in each shard, the arena the nodes carve what they send
// from, so the run allocates its nodes' state and not their messages.
func TestWarmOneShotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // the slot must keep its Scratch
	spec := finSpec16()
	oneShot := func() {
		if _, err := run.Run(spec); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		oneShot()
	}
	allocs := testing.AllocsPerRun(10, oneShot)
	t.Logf("%.0f allocations a run", allocs)
	if allocs > 550 {
		t.Errorf("a warm one-shot FIN n=16 run made %.0f allocations, want at most 550", allocs)
	}
}

// TestFinalsOutliveTheirTrial: what a trial outputs is its own. A session's
// next trial reuses the memory its slots' drivers decoded into, so a DORA
// certificate that aliased a delivered signature would change under it: the
// first trial's certificates must still equal a deep copy taken before the
// second trial ran, and still verify.
func TestFinalsOutliveTheirTrial(t *testing.T) {
	for _, kind := range []run.BackendKind{run.BackendLive, run.BackendTCP} {
		t.Run(string(kind), func(t *testing.T) {
			s := openSession(t, kind, 8, false)
			defer s.Close()
			first := quickSpec(run.ProtoDora, 21)
			st, err := s.Run(first)
			if err != nil {
				t.Fatal(err)
			}
			kept := slices.Clone(st.Finals)
			for i, v := range kept {
				if c, ok := v.(dora.Certificate); ok {
					c.Signers, c.Sigs = slices.Clone(c.Signers), slices.Clone(c.Sigs)
					for k := range c.Sigs {
						c.Sigs[k] = slices.Clone(c.Sigs[k])
					}
					c.DelphiResult.Levels = slices.Clone(c.DelphiResult.Levels)
					kept[i] = c
				}
			}
			if _, err := s.Run(quickSpec(run.ProtoDora, 22)); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st.Finals, kept) {
				t.Error("the first trial's outputs changed while the second ran")
			}
			if _, err := first.StatsFromOutputs(st.Finals, st.DecidedAt); err != nil {
				t.Errorf("the first trial's outputs after the second: %v", err)
			}
		})
	}
}

// TestSimFinalsOutliveTheirRun is TestFinalsOutliveTheirTrial on the
// simulator: a sim session's Scratch keeps the arena its nodes carve what
// they send from, and the next run resets it, so a FIN or Abraham et al.
// output that aliased a sent message would change under it. Each run's
// outputs must still equal a deep copy taken before the next one ran.
func TestSimFinalsOutliveTheirRun(t *testing.T) {
	s, err := run.OpenSim(run.RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var last, kept []any
	for k, proto := range []run.Protocol{run.ProtoFIN, run.ProtoFIN, run.ProtoAbraham, run.ProtoAbraham, run.ProtoFIN} {
		st, err := s.Run(quickSpec(proto, int64(31+k)))
		if err != nil {
			t.Fatal(err)
		}
		if got := finalsCopy(last); !reflect.DeepEqual(got, kept) {
			t.Errorf("run %d's outputs changed while run %d (%s) ran:\n%v\nwant %v", k-1, k, proto, got, kept)
		}
		last, kept = st.Finals, finalsCopy(st.Finals)
	}
}

// finalsCopy deep-copies what FIN's and Abraham et al.'s finals hold: an
// acs.Result's slices, and an AbrahamResult's output and per-round states.
func finalsCopy(finals []any) []any {
	out := slices.Clone(finals)
	for i, v := range out {
		switch r := v.(type) {
		case acs.Result:
			r.Set, r.Values = slices.Clone(r.Set), slices.Clone(r.Values)
			out[i] = r
		case aaa.AbrahamResult:
			states := []float64{r.Output}
			for k := 1; k <= r.Rounds; k++ {
				v, _ := r.RoundValue(k)
				states = append(states, v)
			}
			out[i] = states
		}
	}
	return out
}
