package backend

import (
	"math"
	"strings"
	"testing"
	"time"

	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/netadv"
	"delphi/internal/sim"
)

// quickParams is the tests' fast Delphi parameterisation (few halving
// rounds, subsecond live runs).
var quickParams = core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2}

// quickSpec builds a small clean-network spec for the protocol.
func quickSpec(proto bench.Protocol, seed int64) bench.RunSpec {
	n, f := 8, 2
	if proto == bench.ProtoDolev {
		n, f = 6, 1 // Dolev needs n >= 5t+1
	}
	return bench.RunSpec{
		Protocol: proto,
		N:        n,
		F:        f,
		Env:      sim.AWS(),
		Seed:     seed,
		Inputs:   bench.OracleInputs(n, 41000, 20, seed),
		Delphi:   quickParams,
	}
}

func TestBackendsRegistered(t *testing.T) {
	for _, kind := range []bench.BackendKind{bench.BackendSim, bench.BackendLive, bench.BackendTCP} {
		if !bench.BackendRegistered(kind) {
			t.Errorf("backend %q not registered", kind)
		}
	}
	caps, ok := bench.BackendCapsOf(bench.BackendLive)
	if !ok || caps.Deterministic || !caps.WallClock {
		t.Errorf("live caps = %+v, want wall-clock non-deterministic", caps)
	}
	caps, ok = bench.BackendCapsOf(bench.BackendSim)
	if !ok || !caps.Deterministic || caps.WallClock {
		t.Errorf("sim caps = %+v, want deterministic virtual-time", caps)
	}
	if bench.BackendRegistered("quantum") {
		t.Error("unknown backend reported registered")
	}
	kinds := bench.RegisteredBackends()
	if len(kinds) < 3 || kinds[0] != bench.BackendSim {
		t.Errorf("RegisteredBackends() = %v, want sim first with live kinds", kinds)
	}
}

// TestSimBackendByteIdentical pins the simulator's place on the backend
// axis: with the live backends registered, a spec naming the simulator runs
// through the engine byte-identically to calling bench.Run directly, and
// reports no wall time.
func TestSimBackendByteIdentical(t *testing.T) {
	spec := quickSpec(bench.ProtoDelphi, 7)
	direct, err := bench.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Backend = bench.BackendSim
	viaEngine, err := bench.NewEngine(1).RunBatch([]bench.RunSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if viaEngine[0].Wall != 0 {
		t.Errorf("sim backend reported wall time %v", viaEngine[0].Wall)
	}
	if got, want := viaEngine[0], direct; !statsEqual(got, want) {
		t.Errorf("sim backend stats differ from bench.Run:\n%+v\nvs\n%+v", got, want)
	}
}

func statsEqual(a, b *bench.RunStats) bool {
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
	for _, proto := range []bench.Protocol{bench.ProtoDelphi, bench.ProtoFIN, bench.ProtoAbraham, bench.ProtoDolev} {
		t.Run(string(proto), func(t *testing.T) {
			spec := quickSpec(proto, 42)
			st, err := Live{}.Run(spec)
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
			if st.Backend != bench.BackendLive {
				t.Errorf("stats backend = %q, want live", st.Backend)
			}
		})
	}
}

// TestLiveBackendFaults exercises crash and Byzantine slots on the live
// cluster: the honest majority must still decide.
func TestLiveBackendFaults(t *testing.T) {
	spec := quickSpec(bench.ProtoDelphi, 11)
	spec.Inputs[5] = math.NaN() // crash a middle slot
	spec.Byzantine = 1          // slot 7 turns adversarial
	spec.ByzKind = bench.ByzSpam
	r, err := Live{}.Run(spec)
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
	spec := quickSpec(bench.ProtoDelphi, 3)
	spec.Adversary = netadv.Adversary{Kind: netadv.Partition, Severity: severity}
	r, err := Live{}.Run(spec)
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
	clean, err := Live{}.Run(spec)
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
	spec := quickSpec(bench.ProtoDelphi, 3)
	spec.Adversary = netadv.Adversary{Kind: netadv.Partition, Severity: 1} // heals after 1.5 s
	_, err := Live{Timeout: 50 * time.Millisecond}.Run(spec)
	if err == nil {
		t.Fatal("partitioned cluster decided inside 50ms")
	}
	for _, want := range []string{"timed out after 50ms", "honest slots [0 1 2 3 4 5 6 7] have no output"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
}

// TestMatrixBackendAxis drives the acceptance criterion: one matrix whose
// Backends axis spans the simulator and the live cluster, expanded and
// executed through Engine.RunScenarios, with sim cells byte-identical to
// the same matrix without the axis.
func TestMatrixBackendAxis(t *testing.T) {
	base := bench.Matrix{
		Base: bench.Scenario{
			Protocol: bench.ProtoDelphi,
			N:        8,
			Env:      sim.AWS(),
			Params:   quickParams,
			Center:   41000,
			Delta:    20,
			Trials:   2,
		},
		Shapes: []bench.InputShape{bench.ShapePinned, bench.ShapeClustered},
	}
	withAxis := base
	withAxis.Backends = []bench.BackendKind{bench.BackendSim, bench.BackendLive}

	cells := withAxis.Scenarios()
	if len(cells) != 4 {
		t.Fatalf("expanded %d cells, want 4", len(cells))
	}
	var liveNames, simNames int
	for _, c := range cells {
		if strings.HasSuffix(c.Name, "/be=live") {
			liveNames++
		} else if strings.Contains(c.Name, "/be=") {
			t.Errorf("sim cell %q carries a /be= suffix", c.Name)
		} else {
			simNames++
		}
	}
	if liveNames != 2 || simNames != 2 {
		t.Fatalf("cell split sim=%d live=%d, want 2/2", simNames, liveNames)
	}

	eng := bench.NewEngine(4)
	res, err := eng.RunScenarios(cells, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := eng.RunMatrix(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	pi := 0
	for _, r := range res {
		if r.Scenario.Backend == bench.BackendLive {
			if r.Agg.WallMS.N() != 2 {
				t.Errorf("live cell %q aggregated %d wall samples, want 2", r.Scenario.Name, r.Agg.WallMS.N())
			}
			if r.Agg.Spread.Max() > quickParams.Eps {
				t.Errorf("live cell %q spread %g > eps", r.Scenario.Name, r.Agg.Spread.Max())
			}
			continue
		}
		// Sim cells: byte-identical to the matrix without the backend
		// axis, and no wall samples.
		if r.Agg.WallMS.N() != 0 {
			t.Errorf("sim cell %q has wall samples", r.Scenario.Name)
		}
		want := plain[pi]
		pi++
		if r.Scenario.Name != want.Scenario.Name {
			t.Fatalf("sim cell order diverged: %q vs %q", r.Scenario.Name, want.Scenario.Name)
		}
		if r.Agg.LatencyMS.Mean() != want.Agg.LatencyMS.Mean() ||
			r.Agg.MB.Mean() != want.Agg.MB.Mean() ||
			r.Agg.Spread.Mean() != want.Agg.Spread.Mean() ||
			r.Agg.AbsErr.Mean() != want.Agg.AbsErr.Mean() {
			t.Errorf("sim cell %q not byte-identical with the backend axis present", r.Scenario.Name)
		}
	}
	if pi != len(plain) {
		t.Errorf("matched %d sim cells against %d plain cells", pi, len(plain))
	}
}

// TestCrossBackendValidation drives the acceptance criterion end to end:
// every protocol, clean and under two netadv presets injected into the
// live transport, must land in the same agreement window on the simulator
// and the live cluster.
func TestCrossBackendValidation(t *testing.T) {
	rep, err := bench.NewEngine(0).ValidateCrossBackend(
		[]bench.BackendKind{bench.BackendSim, bench.BackendLive}, bench.Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("cross-backend validation failed:\n%s", rep.Text)
	}
	if len(rep.Cells) != 12 { // 4 protocols × (clean + 2 presets)
		t.Errorf("validated %d cells, want 12", len(rep.Cells))
	}
	advs := map[string]bool{}
	for _, c := range rep.Cells {
		if c.Adversary.Kind != netadv.None {
			advs[string(c.Adversary.Kind)] = true
		}
	}
	if len(advs) < 2 {
		t.Errorf("validator injected %d netadv presets, want >= 2 (%v)", len(advs), advs)
	}
	for _, want := range []string{"delphi", "fin", "abraham", "dolev", "ok"} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("report lacks %q:\n%s", want, rep.Text)
		}
	}
}

// TestTCPBackend runs a real loopback TCP cluster — the heaviest backend,
// so it stays out of -short runs.
func TestTCPBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp cluster smoke")
	}
	spec := quickSpec(bench.ProtoDelphi, 42)
	spec.N, spec.F = 4, 1
	spec.Inputs = bench.OracleInputs(4, 41000, 20, 42)
	r, err := TCP{}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Spread > quickParams.Eps {
		t.Errorf("tcp spread %g > eps", r.Spread)
	}
	if r.Backend != bench.BackendTCP {
		t.Errorf("stats backend = %q, want tcp", r.Backend)
	}
	if r.Wall <= 0 {
		t.Error("tcp run reported no wall time")
	}

	// Adversary injection composes with the TCP transport too.
	spec.Adversary = netadv.Adversary{Kind: netadv.SlowF, Severity: 0.1}
	if _, err := (TCP{}.Run(spec)); err != nil {
		t.Fatalf("tcp under slow-f: %v", err)
	}

	// A Byzantine spammer never halts; once the honest nodes decide, the
	// cluster watchdog must close the transports and end the run promptly
	// instead of waiting out the timeout with the spammer blocked mid-Send.
	spec.Adversary = netadv.Adversary{}
	spec.Byzantine = 1
	spec.ByzKind = bench.ByzSpam
	start := time.Now()
	r2, err := (TCP{Timeout: 30 * time.Second}).Run(spec)
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
	spec := quickSpec(bench.ProtoFIN, 5)
	var outputs []float64
	for i := 0; i < 3; i++ {
		r, err := Live{}.Run(spec)
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
