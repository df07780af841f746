package bench

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"delphi/internal/core"
	"delphi/internal/sim"
)

// fakeSessBackend is a registry-level sessionful backend used to pin the
// engine's session lifecycle: how many sessions open, when they close, and
// what happens to a session whose trial fails.
type fakeSessBackend struct {
	opens  atomic.Int64
	closes atomic.Int64
	runs   atomic.Int64
	// failSeeds lists seeds whose trials fail.
	mu        sync.Mutex
	failSeeds map[int64]bool
}

type fakeSession struct {
	b      *fakeSessBackend
	closed bool
}

func (s *fakeSession) Run(spec RunSpec) (*RunStats, error) {
	if s.closed {
		return nil, errors.New("run on closed session")
	}
	s.b.runs.Add(1)
	s.b.mu.Lock()
	fail := s.b.failSeeds[spec.Seed]
	s.b.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("injected failure for seed %d", spec.Seed)
	}
	return Run(spec)
}

func (s *fakeSession) Close() error {
	if !s.closed {
		s.closed = true
		s.b.closes.Add(1)
	}
	return nil
}

var (
	fakeBackend     = &fakeSessBackend{failSeeds: map[int64]bool{}}
	fakeKind        = BackendKind("fake-sess")
	registerFakeNow = sync.OnceFunc(func() {
		MustRegisterBackend(fakeKind, BackendCaps{Deterministic: true}, func(spec RunSpec) (*RunStats, error) {
			return Run(spec)
		})
		MustRegisterBackendSessions(fakeKind, SessionSupport{
			Key: func(spec RunSpec) string { return fmt.Sprintf("n=%d", spec.N) },
			Open: func(RunSpec) (BackendSession, error) {
				fakeBackend.opens.Add(1)
				return &fakeSession{b: fakeBackend}, nil
			},
		})
	})
)

func fakeSpec(seed int64) RunSpec {
	spec := quickDelphiSpec(seed)
	spec.Backend = fakeKind
	return spec
}

// quickDelphiSpec builds a minimal simulator-backed Delphi spec.
func quickDelphiSpec(seed int64) RunSpec {
	return RunSpec{
		Protocol: ProtoDelphi,
		N:        8, F: 2,
		Env:    sim.AWS(),
		Seed:   seed,
		Inputs: OracleInputs(8, 41000, 20, seed),
		Delphi: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2},
	}
}

// TestEngineSessionLifecycle pins session amortisation: a sequential
// 10-trial batch on a sessionful backend opens exactly one session, runs
// every trial through it, and closes it when the batch returns.
func TestEngineSessionLifecycle(t *testing.T) {
	registerFakeNow()
	opens0, closes0 := fakeBackend.opens.Load(), fakeBackend.closes.Load()
	eng := &Engine{Workers: 1}
	if _, err := eng.RunTrials(fakeSpec(21), 10); err != nil {
		t.Fatal(err)
	}
	if opens := fakeBackend.opens.Load() - opens0; opens != 1 {
		t.Errorf("10 trials opened %d sessions, want 1", opens)
	}
	if closes := fakeBackend.closes.Load() - closes0; closes != 1 {
		t.Errorf("batch end closed %d sessions, want 1", closes)
	}

	// With sessions disabled the per-trial path runs instead: no opens.
	opens0 = fakeBackend.opens.Load()
	eng = &Engine{Workers: 1, DisableSessions: true}
	if _, err := eng.RunTrials(fakeSpec(22), 3); err != nil {
		t.Fatal(err)
	}
	if opens := fakeBackend.opens.Load() - opens0; opens != 0 {
		t.Errorf("DisableSessions still opened %d sessions", opens)
	}
}

// TestEngineSessionReopensAfterFailure pins crash-mid-trial semantics: the
// engine closes a session whose trial failed and opens a fresh one for the
// cell's next trial, so one wedged substrate cannot poison later trials.
func TestEngineSessionReopensAfterFailure(t *testing.T) {
	registerFakeNow()
	specs := make([]RunSpec, 5)
	for i := range specs {
		specs[i] = fakeSpec(int64(100 + i))
	}
	failSeed := specs[2].Seed
	fakeBackend.mu.Lock()
	fakeBackend.failSeeds[failSeed] = true
	fakeBackend.mu.Unlock()
	defer func() {
		fakeBackend.mu.Lock()
		delete(fakeBackend.failSeeds, failSeed)
		fakeBackend.mu.Unlock()
	}()

	opens0, closes0 := fakeBackend.opens.Load(), fakeBackend.closes.Load()
	eng := &Engine{Workers: 1}
	_, err := eng.RunBatch(specs)
	if err == nil {
		t.Fatal("batch with injected failure succeeded")
	}
	var te *TrialError
	if !errors.As(err, &te) || te.Index != 2 {
		t.Fatalf("error = %v, want TrialError at index 2", err)
	}
	// Sequential engine: session 1 runs trials 0-2 and dies with trial 2;
	// the batch aborts at the failure, so no reopen happens here — but
	// every opened session must be closed exactly once.
	if opens, closes := fakeBackend.opens.Load()-opens0, fakeBackend.closes.Load()-closes0; opens != closes {
		t.Errorf("opens=%d closes=%d after failed batch: leaked sessions", opens, closes)
	}

	// A batch where the failing trial is NOT last for its worker: the cell
	// must reopen for the remaining trials. Workers=1 and failure at index
	// 0 with minFail semantics: trials below the failure still run — here
	// the failure is first, so the rest are skipped. Instead inject the
	// failure mid-batch and run with the failure re-ordered last-but-one:
	// simplest deterministic shape is failure at index 2 of 5 with the
	// skip logic leaving 3 and 4 unrun. To still pin the reopen path,
	// run a fresh successful batch and require a fresh session (the failed
	// session must not be resurrected).
	opens0 = fakeBackend.opens.Load()
	if _, err := eng.RunBatch(specs[:2]); err != nil {
		t.Fatal(err)
	}
	if opens := fakeBackend.opens.Load() - opens0; opens != 1 {
		t.Errorf("fresh batch opened %d sessions, want 1", opens)
	}
}

// TestEngineSessionDropsFailedMidBatch pins the reopen within one batch:
// with the failure at the lowest index, minFail semantics still run the
// trials below it — none here — while a failure at a higher index lets the
// worker continue lower-indexed trials on a fresh session.
func TestEngineSessionDropsFailedMidBatch(t *testing.T) {
	registerFakeNow()
	// Parallel batch: worker order is nondeterministic, so instead pin the
	// sequential single-worker contract directly at the cache level: fail
	// trial 1 of 4, observe the failed session closed and a new one opened
	// for trials 2 and 3 (they run before RunBatch returns the error only
	// if their indices are below the failure — they are not — so drive the
	// cache by hand).
	b, _ := lookupBackend(fakeKind)
	sup := b.sessions
	if sup == nil {
		t.Fatal("fake backend lost its session support")
	}
	cache := newSessionCache()
	defer cache.close()

	good := fakeSpec(300)
	bad := fakeSpec(301)
	fakeBackend.mu.Lock()
	fakeBackend.failSeeds[bad.Seed] = true
	fakeBackend.mu.Unlock()
	defer func() {
		fakeBackend.mu.Lock()
		delete(fakeBackend.failSeeds, bad.Seed)
		fakeBackend.mu.Unlock()
	}()

	opens0, closes0 := fakeBackend.opens.Load(), fakeBackend.closes.Load()
	if _, err := cache.run(sup, fakeKind, good); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.run(sup, fakeKind, bad); err == nil {
		t.Fatal("injected failure did not surface")
	}
	if closes := fakeBackend.closes.Load() - closes0; closes != 1 {
		t.Fatalf("failed trial closed %d sessions, want exactly the cell's", closes)
	}
	if _, err := cache.run(sup, fakeKind, good); err != nil {
		t.Fatalf("trial after failure: %v", err)
	}
	if opens := fakeBackend.opens.Load() - opens0; opens != 2 {
		t.Errorf("cell opened %d sessions across the failure, want 2 (original + reopen)", opens)
	}
}
