package bench_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// testBackendKind is a throwaway kind registered only by this file; the
// table is global and append-only, so the name must not collide with the
// built-in kinds (sim, live, tcp).
const testBackendKind run.BackendKind = "test-canned"

func specFor(backendKind run.BackendKind) run.RunSpec {
	return run.RunSpec{
		Protocol: run.ProtoDelphi, N: 8, F: 2, Env: sim.AWS(), Seed: 1,
		Inputs:  bench.OracleInputs(8, 41000, 20, 1),
		Delphi:  core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2},
		Backend: backendKind,
	}
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// TestBackendRegistry pins the registration hook's contract: built-ins
// cannot be replaced, nil runners and duplicates are rejected, and
// registered backends are routed to by the engine with their stats flowing
// through aggregation untouched.
func TestBackendRegistry(t *testing.T) {
	noop := func(run.RunSpec) (*run.RunStats, error) { return nil, nil }
	for _, kind := range []run.BackendKind{"", run.BackendSim, run.BackendLive, run.BackendTCP} {
		if !panics(func() { bench.MustRegisterBackend(kind, bench.BackendCaps{}, noop) }) {
			t.Errorf("re-registering the built-in %q kind: want panic", kind)
		}
	}
	if !panics(func() { bench.MustRegisterBackend("nil-runner", bench.BackendCaps{}, nil) }) {
		t.Error("nil runner accepted")
	}
	canned := &run.RunStats{
		Latency: 123 * time.Millisecond,
		Outputs: []float64{41000},
		Wall:    55 * time.Millisecond,
		Backend: testBackendKind,
	}
	bench.MustRegisterBackend(testBackendKind, bench.BackendCaps{WallClock: true}, func(s run.RunSpec) (*run.RunStats, error) {
		st := *canned
		return &st, nil
	})
	if !panics(func() { bench.MustRegisterBackend(testBackendKind, bench.BackendCaps{}, noop) }) {
		t.Error("duplicate registration accepted")
	}

	// The engine routes specs by kind and aggregates wall time only for
	// wall-clock results.
	stats, err := bench.NewEngine(2).RunBatch([]run.RunSpec{specFor(testBackendKind)})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Latency != canned.Latency || stats[0].Wall != canned.Wall {
		t.Errorf("canned stats did not round-trip: %+v", stats[0])
	}
	agg := bench.NewAggregate(false)
	agg.Observe(stats[0])
	if agg.WallMS.N() != 1 || agg.WallMS.Mean() != 55 {
		t.Errorf("WallMS = n=%d mean=%g, want 1 sample of 55ms", agg.WallMS.N(), agg.WallMS.Mean())
	}
	simStats, err := run.Run(specFor(""))
	if err != nil {
		t.Fatal(err)
	}
	agg2 := bench.NewAggregate(false)
	agg2.Observe(simStats)
	if agg2.WallMS.N() != 0 {
		t.Errorf("simulator trial fed WallMS (%d samples)", agg2.WallMS.N())
	}
}

// TestBackendUnregisteredErrors pins the failure mode of a kind no table
// row names: scenario validation and engine dispatch, by spec or by engine
// default, all name the unknown kind.
func TestBackendUnregisteredErrors(t *testing.T) {
	_, err := bench.NewEngine(1).RunBatch([]run.RunSpec{specFor("quantum")})
	if err == nil || !strings.Contains(err.Error(), "quantum") {
		t.Errorf("unregistered backend dispatch error = %v", err)
	}
	var te *bench.TrialError
	if !errors.As(err, &te) {
		t.Errorf("dispatch failure not a TrialError: %v", err)
	}
	sc := bench.Scenario{
		Protocol: run.ProtoDelphi, N: 8, Env: sim.AWS(),
		Params: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2},
		Center: 41000, Delta: 20, Backend: "quantum",
	}
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("scenario validation error = %v", err)
	}
	// An engine's Backend retargets specs that name none, so it fails the
	// same way.
	_, err = (&bench.Engine{Backend: "quantum"}).RunBatch([]run.RunSpec{specFor("")})
	if err == nil || !strings.Contains(err.Error(), "quantum") {
		t.Errorf("unregistered engine backend error = %v", err)
	}
}
