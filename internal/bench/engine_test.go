package bench_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/obs"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// detSpecs builds a small cross-protocol spec batch: every protocol at two
// seeds, plus a crash-faulted and a compression-off variant.
func detSpecs() []run.RunSpec {
	n := 8
	f := 2
	p := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2}
	var specs []run.RunSpec
	for _, proto := range []run.Protocol{
		run.ProtoDelphi, run.ProtoFIN, run.ProtoAbraham, run.ProtoDolev,
	} {
		fp := f
		if proto == run.ProtoDolev {
			fp = 1 // n = 5t+1
		}
		for seed := int64(1); seed <= 2; seed++ {
			specs = append(specs, run.RunSpec{
				Protocol: proto, N: n, F: fp, Env: sim.AWS(), Seed: seed,
				Inputs: bench.OracleInputs(n, 41000, 20, seed), Delphi: p,
			})
		}
	}
	crashed := bench.OracleInputs(n, 41000, 20, 3)
	crashed[4] = math.NaN()
	specs = append(specs, run.RunSpec{
		Protocol: run.ProtoDelphi, N: n, F: f, Env: sim.AWS(), Seed: 3,
		Inputs: crashed, Delphi: p,
	})
	specs = append(specs, run.RunSpec{
		Protocol: run.ProtoDelphi, N: n, F: f, Env: sim.CPS(), Seed: 4,
		Inputs: bench.OracleInputs(n, 41000, 20, 4), Delphi: p, NoCompression: true,
	})
	return specs
}

// TestEngineMatchesSequential is the determinism regression: for every
// protocol, the engine's parallel results must be identical — outputs,
// bytes, latencies, every field — to sequential run.Run at equal seeds,
// for any worker count.
func TestEngineMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test")
	}
	specs := detSpecs()
	want := make([]*run.RunStats, len(specs))
	for i, spec := range specs {
		st, err := run.Run(spec)
		if err != nil {
			t.Fatalf("sequential spec %d (%s): %v", i, spec.Protocol, err)
		}
		want[i] = st
	}
	for _, workers := range []int{1, 4, 16} {
		got, err := bench.NewEngine(workers).RunBatch(specs)
		if err != nil {
			t.Fatalf("engine workers=%d: %v", workers, err)
		}
		for i := range specs {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("workers=%d spec %d (%s seed=%d): parallel result diverges\nseq: %+v\npar: %+v",
					workers, i, specs[i].Protocol, specs[i].Seed, want[i], got[i])
			}
		}
	}
}

// TestRunIsRerunDeterministic re-executes one spec twice in-process: the
// simulator must be a pure function of the spec.
func TestRunIsRerunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test")
	}
	for _, spec := range detSpecs() {
		a, err := run.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := run.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s seed=%d: rerun diverges: %+v vs %+v", spec.Protocol, spec.Seed, a, b)
		}
	}
}

// TestTrialSeedProperties pins the derivation: deterministic, sensitive to
// both inputs, and collision-free over a realistic trial window.
func TestTrialSeedProperties(t *testing.T) {
	if run.TrialSeed(1, 0) != run.TrialSeed(1, 0) {
		t.Fatal("TrialSeed not deterministic")
	}
	seen := make(map[int64]bool)
	for base := int64(0); base < 4; base++ {
		for trial := 0; trial < 1000; trial++ {
			s := run.TrialSeed(base, trial)
			if seen[s] {
				t.Fatalf("seed collision at base=%d trial=%d", base, trial)
			}
			seen[s] = true
		}
	}
}

// TestRunBatchErrorIndex pins the error contract: the lowest-indexed
// failure wins, wrapped in a TrialError, at any worker count.
func TestRunBatchErrorIndex(t *testing.T) {
	specs := detSpecs()[:3]
	specs[1].Protocol = "nonsense"
	specs[2].Protocol = "alsobad"
	for _, workers := range []int{1, 4} {
		_, err := bench.NewEngine(workers).RunBatch(specs)
		if err == nil {
			t.Fatalf("workers=%d: want error", workers)
		}
		var te *bench.TrialError
		if !errors.As(err, &te) {
			t.Fatalf("workers=%d: error %v is not a TrialError", workers, err)
		}
		if te.Index != 1 {
			t.Errorf("workers=%d: failing index = %d, want 1 (lowest)", workers, te.Index)
		}
	}
}

// TestRunTrialsDerivesSeeds checks that RunTrials runs TrialSeed-derived
// specs (trial 0 equals a direct run at the derived seed).
func TestRunTrialsDerivesSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test")
	}
	base := run.RunSpec{
		Protocol: run.ProtoDelphi, N: 8, F: 2, Env: sim.AWS(), Seed: 7,
		Inputs: bench.OracleInputs(8, 41000, 20, 7),
		Delphi: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2},
	}
	got, err := bench.NewEngine(2).RunTrials(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	direct := base
	direct.Seed = run.TrialSeed(7, 0)
	want, err := run.Run(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got[0]) {
		t.Errorf("trial 0 diverges from direct run at derived seed")
	}
}

// TestStreamMoments checks the online moments against the closed forms.
func TestStreamMoments(t *testing.T) {
	var s bench.Stream
	s.KeepSamples = true
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, v := range vals {
		s.Add(v)
	}
	if s.N() != len(vals) {
		t.Errorf("N = %d, want %d", s.N(), len(vals))
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("mean = %g, want 5", got)
	}
	if got := s.Var(); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("var = %g, want %g", got, 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %g/%g, want 2/9", s.Min(), s.Max())
	}
	if len(s.Samples) != len(vals) {
		t.Errorf("samples = %d, want %d", len(s.Samples), len(vals))
	}
	var empty bench.Stream
	if !math.IsNaN(empty.Mean()) || !math.IsNaN(empty.Var()) || !math.IsNaN(empty.Min()) {
		t.Error("empty stream must report NaN moments")
	}
}

// TestEngineShardBudget pins how a 2-core engine shards its simulated runs,
// read from the sim.shard.* metrics each run records: a lone spec at n=160
// takes both cores as two window shards, one at n=16 keeps one shard, and so
// does each spec of a two-spec batch, whose trials hold both cores. A spec
// that names its own SimWorkers keeps it. The shard count moves no result.
func TestEngineShardBudget(t *testing.T) {
	spec := func(n, trial int) run.RunSpec {
		s := bench.Scenario{
			Protocol: run.ProtoDolev, N: n, Env: sim.AWS(),
			Params: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 8, Eps: 2},
			Center: 41000, Delta: 8,
		}.Spec(1, trial)
		s.Obs = obs.New()
		return s
	}
	eng := &bench.Engine{Workers: 2}
	for _, c := range []struct {
		name   string
		specs  []run.RunSpec
		shards int
	}{
		{"one spec, n=160", []run.RunSpec{spec(160, 0)}, 2},
		{"one spec, n=16", []run.RunSpec{spec(16, 0)}, 1},
		{"two specs, n=160", []run.RunSpec{spec(160, 0), spec(160, 1)}, 1},
	} {
		sts, err := eng.RunBatch(c.specs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i, st := range sts {
			for k := range 3 {
				got := st.Metrics.Value(fmt.Sprintf("sim.shard.%d.events", k)) > 0
				if want := k < c.shards; got != want {
					t.Errorf("%s, spec %d: shard %d recorded: %v, want %v", c.name, i, k, got, want)
				}
			}
			c.specs[i].Obs = nil
			if want, err := run.Run(c.specs[i]); err != nil || !reflect.DeepEqual(st.Outputs, want.Outputs) || st.Latency != want.Latency {
				t.Errorf("%s, spec %d: engine run differs from a one-shard Run (%v)", c.name, i, err)
			}
		}
	}

	pinned := spec(160, 0)
	pinned.SimWorkers = 1
	sts, err := eng.RunBatch([]run.RunSpec{pinned})
	if err != nil {
		t.Fatal(err)
	}
	if v := sts[0].Metrics.Value("sim.shard.1.events"); v != 0 {
		t.Errorf("a spec pinned to one shard ran a second one (%d events)", v)
	}
}
