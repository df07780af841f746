package backend

import (
	"math"
	"testing"
	"time"

	"delphi/internal/bench"
	"delphi/internal/netadv"
	"delphi/internal/sim"
)

// TestBatchingLiveAgreement is the batched-vs-unbatched equivalence check
// on the live backend: the frame-batching knob must not move the simulator
// by a bit, and batched and unbatched live runs must both keep the protocol
// guarantees and decide inside the same δ-wide window (the same bound
// ValidateCrossBackend applies across backends).
func TestBatchingLiveAgreement(t *testing.T) {
	spec := quickSpec(bench.ProtoDelphi, 99)
	const delta = 20.0

	simBefore, err := bench.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Live{}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	unbatched, err := Live{NoBatch: true}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	simAfter, err := bench.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !statsEqual(simBefore, simAfter) {
		t.Error("sim results moved while exercising the live batching knob")
	}
	for name, r := range map[string]*bench.RunStats{"batched": batched, "unbatched": unbatched} {
		if r.Spread > quickParams.Eps {
			t.Errorf("%s: spread %g > ε", name, r.Spread)
		}
		for _, v := range r.Outputs {
			if v < 41000-10-quickParams.Rho0-quickParams.Eps || v > 41000+10+quickParams.Rho0+quickParams.Eps {
				t.Errorf("%s: output %g outside relaxed honest hull", name, v)
			}
		}
		if r.TransportDrops != 0 {
			t.Errorf("%s: clean run counted %d transport drops", name, r.TransportDrops)
		}
	}
	// Batching changes transport framing, never protocol accounting: both
	// modes count individual messages. Exact counts vary run to run (nodes
	// halt at scheduling-dependent points and stop sending), so compare as
	// a ratio, not bit-for-bit.
	checkMsgRatio(t, batched, unbatched)
	if gap := math.Abs(mean(batched.Outputs) - mean(unbatched.Outputs)); gap > delta+quickParams.Eps {
		t.Errorf("batched and unbatched runs decided %g apart (> δ=%g)", gap, delta)
	}
}

// checkMsgRatio asserts two runs' accounted message counts are of the same
// magnitude: if batching were accounted per envelope instead of per member
// message, the batched count would collapse by roughly the cluster size.
func checkMsgRatio(t *testing.T, a, b *bench.RunStats) {
	t.Helper()
	if a.TotalMsgs == 0 || b.TotalMsgs == 0 {
		t.Fatalf("empty accounting: %d vs %d messages", a.TotalMsgs, b.TotalMsgs)
	}
	ratio := float64(a.TotalMsgs) / float64(b.TotalMsgs)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("accounted messages diverge across batching modes: %d vs %d (ratio %.2f)",
			a.TotalMsgs, b.TotalMsgs, ratio)
	}
}

// TestBatchingTCPAgreement runs the same equivalence check over real
// loopback TCP, including under an adversary (whose delay rules see
// individual frames, batching notwithstanding).
func TestBatchingTCPAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp batching sweep")
	}
	spec := quickSpec(bench.ProtoDelphi, 77)
	spec.N, spec.F = 8, 2
	const delta = 20.0
	for _, adv := range []netadv.Adversary{{}, {Kind: netadv.JitterStorm, Severity: 0.2}} {
		spec.Adversary = adv
		batched, err := TCP{}.Run(spec)
		if err != nil {
			t.Fatalf("%s batched: %v", adv, err)
		}
		unbatched, err := TCP{NoBatch: true}.Run(spec)
		if err != nil {
			t.Fatalf("%s unbatched: %v", adv, err)
		}
		for name, r := range map[string]*bench.RunStats{"batched": batched, "unbatched": unbatched} {
			if r.Spread > quickParams.Eps {
				t.Errorf("%s %s: spread %g > ε", adv, name, r.Spread)
			}
		}
		checkMsgRatio(t, batched, unbatched)
		if gap := math.Abs(mean(batched.Outputs) - mean(unbatched.Outputs)); gap > delta+quickParams.Eps {
			t.Errorf("%s: batched and unbatched decided %g apart (> δ)", adv, gap)
		}
	}
}

// TestSessionTransportDrops pins the drop-counter plumbing end to end: a
// clean session trial reports zero transport drops in its stats — so a
// non-zero value in an investigation genuinely means frames were lost.
func TestSessionTransportDrops(t *testing.T) {
	for _, kind := range []bench.BackendKind{bench.BackendLive, bench.BackendTCP} {
		t.Run(string(kind), func(t *testing.T) {
			if kind == bench.BackendTCP && testing.Short() {
				t.Skip("tcp session smoke")
			}
			spec := sessionSpec(kind, 13)
			sess := openSession(t, kind, spec.N, false)
			defer sess.Close()
			for i := 0; i < 3; i++ {
				r, err := sess.Run(spec)
				if err != nil {
					t.Fatalf("trial %d: %v", i, err)
				}
				if r.TransportDrops != 0 {
					t.Errorf("trial %d: clean run reported %d transport drops", i, r.TransportDrops)
				}
			}
		})
	}
}

// BenchmarkTCPFrameThroughput measures the live/tcp frame hot path on the
// repo's frame-heaviest cell: the FIN-style ACS baseline at n=16 over
// persistent tcp sessions. ACS runs n reliable-broadcast and n binary-
// agreement instances concurrently, so one protocol step emits echo/ready
// bursts for many instances to every destination — tens of thousands of
// small authenticated frames per trial. The batched mode coalesces each
// step's frames per destination into one sealed write (one MAC + one
// syscall instead of k of each) and recycles frame buffers through the
// inbox pool; unbatched is the one-write-per-message wire behaviour the
// NoBatch knob restores.
//
// Both modes run as alternating trials of one paired benchmark, so slow
// drift on the host (frequency scaling, page cache, GC heap growth) hits
// both clocks equally instead of biasing whichever mode runs later.
// frames/sec counts accounted protocol messages — identical in both
// modes — over each mode's own wall time, so the metrics isolate
// transport efficiency; batch_speedup is their ratio. scripts/bench.sh
// records all three in BENCH_6.json.
func BenchmarkTCPFrameThroughput(b *testing.B) {
	const n, f = 16, 5
	spec := bench.RunSpec{
		Protocol: bench.ProtoFIN,
		N:        n,
		F:        f,
		Env:      sim.AWS(),
		Seed:     21,
		Inputs:   bench.OracleInputs(n, 41000, 20, 21),
		Delphi:   quickParams,
		Backend:  bench.BackendTCP,
	}
	type lane struct {
		name    string
		sess    bench.BackendSession
		elapsed time.Duration
		frames  int64
	}
	lanes := [2]lane{{name: "batched"}, {name: "unbatched"}}
	for i := range lanes {
		sess := openSession(b, bench.BackendTCP, n, i == 1)
		defer sess.Close()
		// Warm the mesh: the first trial dials n² connections.
		if _, err := sess.Run(spec); err != nil {
			b.Fatal(err)
		}
		lanes[i].sess = sess
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := range lanes {
			start := time.Now()
			r, err := lanes[l].sess.Run(spec)
			lanes[l].elapsed += time.Since(start)
			if err != nil {
				b.Fatal(err)
			}
			if r.TransportDrops != 0 {
				b.Fatalf("%s trial dropped %d frames", lanes[l].name, r.TransportDrops)
			}
			lanes[l].frames += int64(r.TotalMsgs)
		}
	}
	b.StopTimer()
	rate := func(l lane) float64 { return float64(l.frames) / l.elapsed.Seconds() }
	b.ReportMetric(rate(lanes[0]), "batched_fps")
	b.ReportMetric(rate(lanes[1]), "unbatched_fps")
	b.ReportMetric(rate(lanes[0])/rate(lanes[1]), "batch_speedup")
}
