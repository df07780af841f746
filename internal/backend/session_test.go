package backend

import (
	"math"
	"testing"

	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/obs"
	"delphi/internal/sim"
)

// sessionSpec is a small clean-network cell spec for session tests.
func sessionSpec(kind bench.BackendKind, seed int64) bench.RunSpec {
	spec := quickSpec(bench.ProtoDelphi, seed)
	spec.Backend = kind
	return spec
}

// openSession opens a clusterSession on the kind's fabric, as the engine
// does for a cell.
func openSession(tb testing.TB, kind bench.BackendKind, n int, noBatch bool) bench.BackendSession {
	tb.Helper()
	open := openHub
	if kind == bench.BackendTCP {
		open = openTCPNet
	}
	s, err := openCluster(kind, open, n, 0, noBatch)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestSessionSupportRegistered(t *testing.T) {
	for _, kind := range []bench.BackendKind{bench.BackendSim, bench.BackendLive, bench.BackendTCP} {
		if !bench.BackendSessionful(kind) {
			t.Errorf("backend %q has no session support", kind)
		}
	}
	if bench.BackendSessionful("quantum") {
		t.Error("unknown backend reported sessionful")
	}
}

// TestSessionDeterminism pins what stays deterministic when trials run
// through persistent sessions, at every worker count and across reruns:
//
//   - sim cells are byte-identical: sessions (scratch reuse) must not move
//     a single bit, whatever the worker count;
//   - live and tcp cells keep the protocol guarantees per trial (agreement
//     within ε, validity hull) and land in the same δ-wide window across
//     worker counts and reruns. Bit-equality is deliberately not asserted
//     there: wall-clock backends are declared non-deterministic (goroutine
//     and network scheduling reorder messages), sessions or not.
func TestSessionDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("session determinism sweep (runs tcp clusters)")
	}
	const trials = 6
	for _, kind := range []bench.BackendKind{bench.BackendSim, bench.BackendLive, bench.BackendTCP} {
		t.Run(string(kind), func(t *testing.T) {
			base := sessionSpec(kind, 11)
			var runs [][]*bench.RunStats
			for _, workers := range []int{1, 4, 16, 4} { // trailing 4: rerun == rerun
				eng := bench.NewEngine(workers)
				stats, err := eng.RunTrials(base, trials)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				runs = append(runs, stats)
			}
			for ri, stats := range runs {
				for ti, st := range stats {
					if st.Spread > quickParams.Eps {
						t.Errorf("run %d trial %d: spread %g > ε", ri, ti, st.Spread)
					}
					for _, v := range st.Outputs {
						if v < 41000-10-quickParams.Rho0-quickParams.Eps || v > 41000+10+quickParams.Rho0+quickParams.Eps {
							t.Errorf("run %d trial %d: output %g outside relaxed hull", ri, ti, v)
						}
					}
				}
			}
			for ri := 1; ri < len(runs); ri++ {
				for ti := range runs[ri] {
					a, b := runs[0][ti], runs[ri][ti]
					if kind == bench.BackendSim {
						if !statsEqual(a, b) {
							t.Errorf("sim trial %d not byte-identical at different worker counts", ti)
						}
						continue
					}
					gap := math.Abs(mean(a.Outputs) - mean(b.Outputs))
					if gap > 20+quickParams.Eps {
						t.Errorf("%s trial %d: runs decided %g apart (> δ)", kind, ti, gap)
					}
				}
			}
		})
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestTCPSessionNoLeak is the re-dial-path regression test: a persistent
// tcp session surviving 10 consecutive trials — including Byzantine trials
// whose teardown interrupts in-flight sends — must hold goroutine and fd
// counts stable. Before accepted-connection pruning, every peer re-dial
// grew the core's accepted set for the life of the session.
func TestTCPSessionNoLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp session leak sweep")
	}
	spec := sessionSpec(bench.BackendTCP, 3)
	sess := openSession(t, bench.BackendTCP, spec.N, false)
	defer sess.Close()

	run := func(i int, byz bool) {
		t.Helper()
		s := spec
		s.Seed = bench.TrialSeed(3, i)
		s.Inputs = bench.OracleInputs(s.N, 41000, 20, s.Seed)
		if byz {
			s.Byzantine = 1
			s.ByzKind = bench.ByzSpam
		}
		r, err := sess.Run(s)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if r.Spread > quickParams.Eps {
			t.Errorf("trial %d: spread %g > ε", i, r.Spread)
		}
	}

	// Warm up: first trials dial the full mesh and park keep-warm state.
	run(0, false)
	run(1, true)
	before := obs.TakeResourceSnapshot()

	for i := 2; i < 10; i++ {
		run(i, i%3 == 2) // every third trial hosts a never-halting spammer
	}
	after := obs.TakeResourceSnapshot()

	// Counts may wobble by a connection or two (a spammer teardown can
	// drop an outbound conn that the next trial re-dials) but must not
	// grow with the trial count. Heap is not asserted here — the 10-trial
	// sweep is too short for a meaningful trend (the soak test covers it).
	if after.Goroutines > before.Goroutines+4 {
		t.Errorf("goroutines grew across trials: %d -> %d", before.Goroutines, after.Goroutines)
	}
	if after.FDs >= 0 && before.FDs >= 0 && after.FDs > before.FDs+4 {
		t.Errorf("fds grew across trials: %d -> %d", before.FDs, after.FDs)
	}
}

// TestOneShotNoLeak pins the one-shot path's teardown: every Live.Run and
// TCP.Run opens a whole fabric (for tcp, a wired loopback mesh), drains the
// slots of crashed nodes, and must close all of it before returning — also
// when a Byzantine spammer never halts. Twenty sequential one-shots must
// leave goroutine and fd counts flat.
func TestOneShotNoLeak(t *testing.T) {
	clean := sessionSpec(bench.BackendLive, 3)
	crashed := clean
	crashed.Inputs = append([]float64(nil), clean.Inputs...)
	crashed.Inputs[5] = math.NaN()
	spammer := clean
	spammer.Byzantine = 1
	spammer.ByzKind = bench.ByzSpam
	specs := []bench.RunSpec{clean, crashed, spammer}
	run := func(i int) {
		t.Helper()
		spec := specs[i%len(specs)]
		run := Live{}.Run
		if i%2 == 1 {
			run = TCP{}.Run
		}
		st, err := run(spec)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if st.Spread > quickParams.Eps {
			t.Errorf("run %d: spread %g > ε", i, st.Spread)
		}
	}
	run(0)
	run(1)
	before := obs.TakeResourceSnapshot()
	for i := 0; i < 20; i++ {
		run(i)
	}
	after := obs.TakeResourceSnapshot()
	if grew := after.GrewBeyond(before, 4, 4, 1<<40); len(grew) != 0 {
		t.Errorf("one-shot runs leaked %v (%+v -> %+v)", grew, before, after)
	}
}

// TestTCPSessionSurvivesFailedTrial pins crash-mid-trial behaviour at the
// session level: a trial that fails before (bad spec) or during (cluster
// timeout) execution must leave the session able to run the next trial.
func TestTCPSessionSurvivesFailedTrial(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp session smoke")
	}
	spec := sessionSpec(bench.BackendTCP, 5)
	sess := openSession(t, bench.BackendTCP, spec.N, false)
	defer sess.Close()

	if _, err := sess.Run(spec); err != nil {
		t.Fatalf("first trial: %v", err)
	}
	bad := spec
	bad.Protocol = "no-such-protocol"
	if _, err := sess.Run(bad); err == nil {
		t.Fatal("bad spec did not error")
	}
	wrongN := spec
	wrongN.N = spec.N + 1
	if _, err := sess.Run(wrongN); err == nil {
		t.Fatal("wrong-n spec did not error")
	}
	r, err := sess.Run(spec)
	if err != nil {
		t.Fatalf("trial after failures: %v", err)
	}
	if r.Spread > quickParams.Eps {
		t.Errorf("spread %g > ε after failed trials", r.Spread)
	}
}

// TestCrossBackendValidationAllKinds drives the acceptance criterion:
// ValidateCrossBackend on sim, live, AND tcp — every tcp trial running
// through a persistent session in the engine's worker caches.
func TestCrossBackendValidationAllKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-backend validation with tcp clusters")
	}
	rep, err := bench.NewEngine(0).ValidateCrossBackend(
		[]bench.BackendKind{bench.BackendSim, bench.BackendLive, bench.BackendTCP}, bench.Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("cross-backend validation failed:\n%s", rep.Text)
	}
}

// BenchmarkTCPCellSetup pins the per-trial setup cost the sessions
// amortise: one 10-trial tcp cell through the engine, with sessions (n
// listeners bound and the mesh dialed once per cell) versus per-trial
// setup (n binds + up to n² dials + teardown every trial). The cell is
// deliberately setup-dominated — a single-round Dolev exchange at n=16,
// ~n² frames — so the ns/op gap measures setup, not protocol execution;
// protocol-heavy cells (e.g. Delphi at Δ=64, thousands of frames per
// trial) still save the same ~milliseconds of setup per trial, a smaller
// fraction of their wall-clock. scripts/bench.sh records both modes in
// BENCH_5.json.
func BenchmarkTCPCellSetup(b *testing.B) {
	spec := bench.RunSpec{
		Protocol: bench.ProtoDolev,
		N:        16, F: bench.ProtoDolev.Faults(16),
		Env:     sim.AWS(),
		Seed:    9,
		Inputs:  bench.OracleInputs(16, 41000, 20, 9),
		Delphi:  core.Params{Delta: 2, Eps: 2}, // Δ/ε = 1: one round
		Backend: bench.BackendTCP,
	}
	for _, mode := range []struct {
		name    string
		disable bool
	}{
		{"session", false},
		{"per-trial", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			eng := &bench.Engine{Workers: 1, DisableSessions: mode.disable}
			for i := 0; i < b.N; i++ {
				if _, err := eng.RunTrials(spec, 10); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*10)/1e6, "ms/trial")
		})
	}
}
