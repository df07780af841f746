package bench_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/sim"
)

// testBackendKind is a throwaway kind registered only by this file; the
// registry is global and append-only, so the name must not collide with
// the real kinds (sim/live/tcp, registered by internal/backend, which this
// package deliberately does not import — bench must work without it).
const testBackendKind bench.BackendKind = "test-canned"

func specFor(backendKind bench.BackendKind) bench.RunSpec {
	return bench.RunSpec{
		Protocol: bench.ProtoDelphi, N: 8, F: 2, Env: sim.AWS(), Seed: 1,
		Inputs:  bench.OracleInputs(8, 41000, 20, 1),
		Delphi:  core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2},
		Backend: backendKind,
	}
}

// TestBackendRegistry pins the registry contract: built-ins cannot be
// replaced, duplicates are rejected, and registered backends are routed to
// by the engine with their stats flowing through aggregation untouched.
func TestBackendRegistry(t *testing.T) {
	if err := bench.RegisterBackend(bench.BackendSim, bench.BackendCaps{}, func(bench.RunSpec) (*bench.RunStats, error) { return nil, nil }); err == nil {
		t.Error("re-registering the built-in sim kind: want error")
	}
	if err := bench.RegisterBackend("nil-runner", bench.BackendCaps{}, nil); err == nil {
		t.Error("nil runner accepted")
	}
	canned := &bench.RunStats{
		Latency: 123 * time.Millisecond,
		Outputs: []float64{41000},
		Wall:    55 * time.Millisecond,
		Backend: testBackendKind,
	}
	caps := bench.BackendCaps{WallClock: true}
	if err := bench.RegisterBackend(testBackendKind, caps, func(s bench.RunSpec) (*bench.RunStats, error) {
		st := *canned
		return &st, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := bench.RegisterBackend(testBackendKind, caps, func(bench.RunSpec) (*bench.RunStats, error) { return nil, nil }); err == nil {
		t.Error("duplicate registration accepted")
	}
	if !bench.BackendRegistered(testBackendKind) {
		t.Error("registered kind not reported")
	}
	if got, ok := bench.BackendCapsOf(testBackendKind); !ok || got != caps {
		t.Errorf("caps = %+v, %v", got, ok)
	}
	if got, ok := bench.BackendCapsOf(bench.BackendKind("")); !ok || !got.Deterministic {
		t.Errorf("empty kind caps = %+v, %v; want built-in deterministic sim", got, ok)
	}

	// The engine routes specs by kind and aggregates wall time only for
	// wall-clock results.
	stats, err := bench.NewEngine(2).RunBatch([]bench.RunSpec{specFor(testBackendKind)})
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
	simStats, err := bench.Run(specFor(""))
	if err != nil {
		t.Fatal(err)
	}
	agg2 := bench.NewAggregate(false)
	agg2.Observe(simStats)
	if agg2.WallMS.N() != 0 {
		t.Errorf("simulator trial fed WallMS (%d samples)", agg2.WallMS.N())
	}
}

// TestBackendUnregisteredErrors pins the failure mode a missing
// `import delphi/internal/backend` produces: scenario validation and
// engine dispatch, by spec or by engine default, all name the unregistered
// kind.
func TestBackendUnregisteredErrors(t *testing.T) {
	_, err := bench.NewEngine(1).RunBatch([]bench.RunSpec{specFor("quantum")})
	if err == nil || !strings.Contains(err.Error(), "quantum") {
		t.Errorf("unregistered backend dispatch error = %v", err)
	}
	var te *bench.TrialError
	if !errors.As(err, &te) {
		t.Errorf("dispatch failure not a TrialError: %v", err)
	}
	sc := bench.Scenario{
		Protocol: bench.ProtoDelphi, N: 8, Env: sim.AWS(),
		Params: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2},
		Center: 41000, Delta: 20, Backend: "quantum",
	}
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Errorf("scenario validation error = %v", err)
	}
	// An engine's Backend retargets specs that name none, so it fails the
	// same way.
	_, err = (&bench.Engine{Backend: "quantum"}).RunBatch([]bench.RunSpec{specFor("")})
	if err == nil || !strings.Contains(err.Error(), "quantum") {
		t.Errorf("unregistered engine backend error = %v", err)
	}
}

// TestBackendAxisNamesAndSpecs pins the matrix axis plumbing without any
// live backend: cell naming, spec propagation, and the zero-value
// degeneration to plain sim cells.
func TestBackendAxisNamesAndSpecs(t *testing.T) {
	m := bench.Matrix{
		Base: bench.Scenario{
			Protocol: bench.ProtoDelphi, N: 8, Env: sim.AWS(),
			Params: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2},
			Center: 41000, Delta: 20,
		},
		Backends: []bench.BackendKind{bench.BackendSim, testBackendKind},
	}
	cells := m.Scenarios()
	if len(cells) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(cells))
	}
	if strings.Contains(cells[0].Name, "/be=") {
		t.Errorf("sim cell named %q; the default backend must not rename cells", cells[0].Name)
	}
	if !strings.HasSuffix(cells[1].Name, "/be="+string(testBackendKind)) {
		t.Errorf("backend cell named %q", cells[1].Name)
	}
	if spec := cells[1].Spec(1, 0); spec.Backend != testBackendKind {
		t.Errorf("cell spec backend = %q", spec.Backend)
	}
	if spec := cells[0].Spec(1, 0); spec.Backend != bench.BackendSim {
		t.Errorf("sim cell spec backend = %q", spec.Backend)
	}
}
