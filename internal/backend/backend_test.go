package backend_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"delphi/internal/backend"
	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/netadv"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// quickParams is the tests' fast Delphi parameterisation (few halving
// rounds, subsecond live runs).
var quickParams = core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2}

// quickSpec builds a small clean-network spec for the protocol.
func quickSpec(proto run.Protocol, seed int64) run.RunSpec {
	n, f := 8, 2
	if proto == run.ProtoDolev {
		n, f = 6, 1 // Dolev needs n >= 5t+1
	}
	return run.RunSpec{
		Protocol: proto,
		N:        n,
		F:        f,
		Env:      sim.AWS(),
		Seed:     seed,
		Inputs:   bench.OracleInputs(n, 41000, 20, seed),
		Delphi:   quickParams,
	}
}

// TestSimBackendByteIdentical pins the simulator's place on the backend
// axis: beside the live backends, a spec naming the simulator runs
// through the engine byte-identically to calling run.Run directly, and
// reports no wall time.
func TestSimBackendByteIdentical(t *testing.T) {
	spec := quickSpec(run.ProtoDelphi, 7)
	direct, err := run.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Backend = run.BackendSim
	viaEngine, err := bench.NewEngine(1).RunBatch([]run.RunSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if viaEngine[0].Wall != 0 {
		t.Errorf("sim backend reported wall time %v", viaEngine[0].Wall)
	}
	if got, want := viaEngine[0], direct; !statsEqual(got, want) {
		t.Errorf("sim backend stats differ from run.Run:\n%+v\nvs\n%+v", got, want)
	}
}

func statsEqual(a, b *run.RunStats) bool {
	if a.Latency != b.Latency || a.TotalBytes != b.TotalBytes || a.TotalMsgs != b.TotalMsgs ||
		a.Spread != b.Spread || a.MeanAbsErr != b.MeanAbsErr ||
		a.SigVerifies != b.SigVerifies || a.Pairings != b.Pairings ||
		len(a.Outputs) != len(b.Outputs) {
		return false
	}
	for i := range a.Outputs {
		if a.Outputs[i] != b.Outputs[i] {
			return false
		}
	}
	return true
}

// TestLiveBackendAllProtocols runs every protocol as a real goroutine
// cluster and checks the protocol guarantees plus the wall-clock and
// traffic accounting the live backend must fill in.
func TestLiveBackendAllProtocols(t *testing.T) {
	for _, proto := range []run.Protocol{run.ProtoDelphi, run.ProtoFIN, run.ProtoAbraham, run.ProtoDolev} {
		t.Run(string(proto), func(t *testing.T) {
			spec := quickSpec(proto, 42)
			st, err := backend.Live{}.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if want := len(spec.HonestSlots()); len(st.Outputs) != want {
				t.Fatalf("outputs = %d, want %d", len(st.Outputs), want)
			}
			if st.Spread > quickParams.Eps {
				t.Errorf("spread %g > eps %g", st.Spread, quickParams.Eps)
			}
			for _, v := range st.Outputs {
				if v < 41000-10-quickParams.Rho0-quickParams.Eps || v > 41000+10+quickParams.Rho0+quickParams.Eps {
					t.Errorf("output %g outside relaxed honest hull", v)
				}
			}
			if st.Wall <= 0 {
				t.Errorf("wall = %v, want positive", st.Wall)
			}
			if st.Latency <= 0 || st.Latency > st.Wall {
				t.Errorf("latency %v outside (0, wall=%v]", st.Latency, st.Wall)
			}
			if st.TotalMsgs == 0 || st.TotalBytes == 0 {
				t.Errorf("traffic accounting empty: %d msgs, %d bytes", st.TotalMsgs, st.TotalBytes)
			}
			if st.Backend != run.BackendLive {
				t.Errorf("stats backend = %q, want live", st.Backend)
			}
		})
	}
}

// TestLiveBackendOracles runs the DORA certificate round and Chakka et
// al.'s baseline as live clusters: the run layer verifies every DORA
// certificate, and Chakka's oracles agree on the SMR channel's first
// submission.
func TestLiveBackendOracles(t *testing.T) {
	for _, proto := range []run.Protocol{run.ProtoDora, run.ProtoChakka} {
		t.Run(string(proto), func(t *testing.T) {
			const n, seed = 4, 42
			spec := run.RunSpec{Protocol: proto, N: n, F: proto.Faults(n), Env: sim.AWS(), Seed: seed,
				Inputs: bench.OracleInputs(n, 41000, 20, seed), Delphi: quickParams}
			st, err := backend.Live{}.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Outputs) != n {
				t.Errorf("outputs = %d, want %d", len(st.Outputs), n)
			}
			if proto == run.ProtoChakka && st.Spread != 0 {
				t.Errorf("chakka spread %g, want 0: every oracle adopts one median", st.Spread)
			}
		})
	}
}

// TestLiveBackendFaults exercises crash and Byzantine slots on the live
// cluster: the honest majority must still decide.
func TestLiveBackendFaults(t *testing.T) {
	spec := quickSpec(run.ProtoDelphi, 11)
	spec.Inputs[5] = math.NaN() // crash a middle slot
	spec.Byzantine = 1          // slot 7 turns adversarial
	spec.ByzKind = run.ByzSpam
	r, err := backend.Live{}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := 6; len(r.Outputs) != want { // 8 - 1 crash - 1 byz
		t.Fatalf("outputs = %d, want %d", len(r.Outputs), want)
	}
	if r.Spread > quickParams.Eps {
		t.Errorf("spread %g > eps under faults", r.Spread)
	}
}

// TestLiveAdversaryInjection pins the delay-wrapping transport: a
// partition adversary holds every cross-partition frame until its heal
// time, so no quorum can form and the cluster cannot finish before the
// heal — a deterministic wall-clock lower bound even on a live cluster.
func TestLiveAdversaryInjection(t *testing.T) {
	const severity = 0.2
	heal := time.Duration(float64(1500*time.Millisecond) * severity)
	spec := quickSpec(run.ProtoDelphi, 3)
	spec.Adversary = netadv.Adversary{Kind: netadv.Partition, Severity: severity}
	r, err := backend.Live{}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Wall < heal {
		t.Errorf("partitioned cluster finished in %v, before the %v heal — adversary not injected", r.Wall, heal)
	}
	if r.Spread > quickParams.Eps {
		t.Errorf("spread %g > eps under partition", r.Spread)
	}

	// And the clean run must not be anywhere near that slow on average:
	// re-run without the adversary and require it to beat the heal bound.
	spec.Adversary = netadv.Adversary{}
	clean, err := backend.Live{}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Wall >= heal {
		t.Logf("clean live run unexpectedly slow (%v); loaded machine?", clean.Wall)
	}
}

// TestTimedOutTrialNamesItsCause pins the timeout error: a cluster that
// cannot finish before its deadline — a partition that heals long after it
// — fails with an error that says it timed out and lists the honest slots
// left without output, not merely that one node produced none.
func TestTimedOutTrialNamesItsCause(t *testing.T) {
	spec := quickSpec(run.ProtoDelphi, 3)
	spec.Adversary = netadv.Adversary{Kind: netadv.Partition, Severity: 1} // heals after 1.5 s
	_, err := backend.Live{Timeout: 50 * time.Millisecond}.Run(spec)
	if err == nil {
		t.Fatal("partitioned cluster decided inside 50ms")
	}
	for _, want := range []string{"timed out after 50ms", "honest slots [0 1 2 3 4 5 6 7] have no output"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
}

// TestCrossBackendValidation drives the acceptance criterion end to end:
// every protocol, clean and under two netadv presets injected into the
// live transport, must land in the same agreement window on the simulator
// and the live cluster.
func TestCrossBackendValidation(t *testing.T) {
	checkCrossBackend(t, run.BackendSim, run.BackendLive)
}

// checkCrossBackend runs every protocol at n=8, clean and under two netadv
// presets at reduced severity (the delays are real wall time on live
// kinds), once on each kind from identical specs, as one engine batch. Each
// run passes the per-run agreement and validity check or fails the batch.
// Across kinds, the same spec's mean outputs must lie within δ+ε of each
// other: every backend decides inside one δ-wide validity window. Wall
// times are real and are not compared.
func checkCrossBackend(t *testing.T, kinds ...run.BackendKind) {
	t.Helper()
	const n, center, delta = 8, 41000.0, 20.0
	advs := []netadv.Adversary{{}, {Kind: netadv.SlowF, Severity: 0.25}, {Kind: netadv.JitterStorm, Severity: 0.25}}
	seed := run.TrialSeed(1, 0)
	var specs []run.RunSpec
	for _, proto := range []run.Protocol{run.ProtoDelphi, run.ProtoFIN, run.ProtoAbraham, run.ProtoDolev} {
		for _, adv := range advs {
			for _, kind := range kinds {
				specs = append(specs, run.RunSpec{
					Protocol: proto, N: n, F: proto.Faults(n), Env: sim.AWS(), Seed: seed,
					Inputs: bench.OracleInputs(n, center, delta, seed), Delphi: quickParams,
					Adversary: adv, Backend: kind,
				})
			}
		}
	}
	stats, err := bench.NewEngine(0).RunBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < len(stats); c += len(kinds) {
		for a := c; a < c+len(kinds); a++ {
			for b := a + 1; b < c+len(kinds); b++ {
				if gap := math.Abs(mean(stats[a].Outputs) - mean(stats[b].Outputs)); gap > delta+quickParams.Eps {
					t.Errorf("%s/%s: %s and %s decided %.3g apart (> δ+ε): no common validity window",
						specs[a].Protocol, specs[a].Adversary, specs[a].Backend, specs[b].Backend, gap)
				}
			}
		}
	}
}

// TestTCPBackend runs a real loopback TCP cluster — the heaviest backend,
// so it stays out of -short runs.
func TestTCPBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp cluster smoke")
	}
	spec := quickSpec(run.ProtoDelphi, 42)
	spec.N, spec.F = 4, 1
	spec.Inputs = bench.OracleInputs(4, 41000, 20, 42)
	r, err := backend.TCP{}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Spread > quickParams.Eps {
		t.Errorf("tcp spread %g > eps", r.Spread)
	}
	if r.Backend != run.BackendTCP {
		t.Errorf("stats backend = %q, want tcp", r.Backend)
	}
	if r.Wall <= 0 {
		t.Error("tcp run reported no wall time")
	}

	// Adversary injection composes with the TCP transport too.
	spec.Adversary = netadv.Adversary{Kind: netadv.SlowF, Severity: 0.1}
	if _, err := (backend.TCP{}.Run(spec)); err != nil {
		t.Fatalf("tcp under slow-f: %v", err)
	}

	// A Byzantine spammer never halts; once the honest nodes decide, the
	// cluster watchdog must close the transports and end the run promptly
	// instead of waiting out the timeout with the spammer blocked mid-Send.
	spec.Adversary = netadv.Adversary{}
	spec.Byzantine = 1
	spec.ByzKind = run.ByzSpam
	start := time.Now()
	r2, err := (backend.TCP{Timeout: 30 * time.Second}).Run(spec)
	if err != nil {
		t.Fatalf("tcp with spammer: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("tcp run with a never-halting spammer took %v; watchdog did not end it", elapsed)
	}
	if want := 3; len(r2.Outputs) != want {
		t.Errorf("outputs = %d, want %d", len(r2.Outputs), want)
	}
}

// TestLiveBackendRerunsAgree documents what IS stable on a live backend:
// wall times vary, but the protocol guarantees hold on every rerun.
func TestLiveBackendRerunsAgree(t *testing.T) {
	spec := quickSpec(run.ProtoFIN, 5)
	var outputs []float64
	for i := 0; i < 3; i++ {
		r, err := backend.Live{}.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if r.Spread != 0 {
			t.Fatalf("FIN honest nodes disagreed on a live cluster: spread %g", r.Spread)
		}
		outputs = append(outputs, r.Outputs[0])
	}
	// FIN's output is the median of the agreed subset's values: scheduling
	// may pick different subsets run to run, but every decision must stay
	// within the honest-input hull.
	for _, v := range outputs {
		if v < 41000-10-1e-9 || v > 41000+10+1e-9 {
			t.Errorf("live FIN decision %g outside honest hull", v)
		}
	}
}
