package backend_test

import (
	"reflect"
	"slices"
	"testing"

	"delphi/internal/bench"
	"delphi/internal/dora"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// TestWarmTrialAllocs: on a warm tcp session one FIN n=16 trial makes at most
// 2 500 allocations. Each fabric slot keeps its node's decode arena, send
// buffers and frame pool from trial to trial, and the protocols carve the
// messages they send, so a trial allocates per node, not per message.
func TestWarmTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	const n, f, seed = 16, 5, 7
	spec := run.RunSpec{Protocol: run.ProtoFIN, N: n, F: f, Env: sim.AWS(), Seed: seed,
		Inputs: bench.OracleInputs(n, 41000, 20, seed), Delphi: quickParams}
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
	allocs := testing.AllocsPerRun(10, trial)
	t.Logf("%.0f allocations a trial", allocs)
	if allocs > 2500 {
		t.Errorf("a warm FIN n=%d trial made %.0f allocations, want at most 2 500", n, allocs)
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
