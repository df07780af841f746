package bench

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"delphi/internal/core"
	"delphi/internal/dist"
	"delphi/internal/feeds"
	"delphi/internal/netadv"
	"delphi/internal/obs"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// traceCell is the fixed-seed Delphi cell the trace-determinism tests run:
// the golden corpus's clean cell, with a selectable adversary and worker
// count.
func traceCell(adv netadv.Adversary, workers int) run.RunSpec {
	const seed = 424242
	const n, f = 8, 2
	return run.RunSpec{
		Protocol:   run.ProtoDelphi,
		N:          n,
		F:          f,
		Env:        sim.AWS(),
		Seed:       seed,
		Inputs:     OracleInputs(n, 41000, 20, seed),
		Delphi:     core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2},
		Adversary:  adv,
		SimWorkers: workers,
	}
}

// runTraced runs one cell with a fresh recorder attached and returns its
// stats plus the exported trace bytes.
func runTraced(t *testing.T, spec run.RunSpec) (*run.RunStats, []byte) {
	t.Helper()
	rec := obs.New()
	spec.Obs = rec
	st, err := run.Run(spec)
	if err != nil {
		t.Fatalf("%s/%s workers=%d: %v", spec.Protocol, spec.Adversary, spec.SimWorkers, err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatalf("write trace: %v", err)
	}
	if rec.EventCount() == 0 {
		t.Fatal("traced run recorded no events")
	}
	return st, buf.Bytes()
}

// TestSimTraceDeterminism pins the trace-as-determinism-oracle guarantee:
// a fixed-seed sim run's trace bytes are identical across reruns and across
// worker counts 0 (the default one shard)/1/4/8, on a clean network, under
// the jitter-storm adversary and under an adaptive slow-f adversary, whose
// schedule reads the run's own history — and attaching the recorder moves no
// result bit (each traced run's golden line equals its untraced twin's).
// An Engine's recorder holds the same bytes: a traced batch at Workers 8
// runs its trials in order.
func TestSimTraceDeterminism(t *testing.T) {
	for _, adv := range []netadv.Adversary{{}, {Kind: netadv.JitterStorm}, {Kind: netadv.SlowF, Adaptive: true}} {
		t.Run(fmt.Sprintf("%s", adv), func(t *testing.T) {
			plain, err := run.Run(traceCell(adv, 0))
			if err != nil {
				t.Fatal(err)
			}
			wantLine := goldenLine(traceCell(adv, 0), plain)
			var first []byte
			for _, workers := range []int{0, 1, 4, 8, 4} {
				st, trace := runTraced(t, traceCell(adv, workers))
				if got := goldenLine(traceCell(adv, workers), st); got != wantLine {
					t.Errorf("workers=%d: traced results diverged:\n got %s\nwant %s", workers, got, wantLine)
				}
				if first == nil {
					first = trace
					continue
				}
				if !bytes.Equal(first, trace) {
					t.Errorf("workers=%d: trace bytes differ from workers=0", workers)
				}
			}

			// The engine's recorder: a batch at Workers 8 traces exactly as
			// its trials run one after another on one recorder.
			seq := obs.New()
			var wantLines []string
			for i := range 3 {
				spec := traceCell(adv, 4)
				spec.Seed = run.TrialSeed(spec.Seed, i)
				spec.Obs = seq
				st, err := run.Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				wantLines = append(wantLines, goldenLine(spec, st))
			}
			eng := &Engine{Obs: obs.New(), Workers: 8}
			sts, err := eng.RunTrials(traceCell(adv, 4), 3)
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range sts {
				if got := goldenLine(traceCell(adv, 4), st); got != wantLines[i] {
					t.Errorf("engine trial %d: results diverged:\n got %s\nwant %s", i, got, wantLines[i])
				}
			}
			var want, got bytes.Buffer
			if err := seq.WriteTrace(&want); err != nil {
				t.Fatal(err)
			}
			if err := eng.Obs.WriteTrace(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Error("engine batch at Workers 8: trace bytes differ from its trials run in order")
			}
		})
	}
}

// obsServiceConfig is the sim service cell the observability service tests
// drive: rate and window chosen so the run exercises queueing, shedding,
// and fan-out all at once.
func obsServiceConfig() ServiceConfig {
	return ServiceConfig{
		Scenario: Scenario{
			Name: "svc-obs", Protocol: run.ProtoDelphi, N: 8, Env: sim.AWS(),
			Params: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2},
			Center: 41000, Delta: 20,
		},
		Rounds: 50,
		Rate:   400,
		Window: 3,
		Queue:  4,
		Subscribers: feeds.Population{
			Size: 1_000_000, Seed: 7, Base: 5 * time.Millisecond,
			Jitter: dist.Lognormal{Mu: 2, Sigma: 0.5},
		},
		Representatives: 3,
	}
}

// serviceTrack finds the recorder's "service" lifecycle track.
func serviceTrack(t *testing.T, rec *obs.Recorder) *obs.Track {
	t.Helper()
	for _, tr := range rec.Tracks() {
		if tr.Name() == "service" {
			return tr
		}
	}
	t.Fatal("no service track recorded")
	return nil
}

// TestServiceSimSpanDecomposition is the span-decomposition acceptance
// gate on the deterministic service model: every decided round's lifecycle
// decomposes into svc.queue [arrival→start] and svc.round [start→decide]
// spans that are contiguous and sum to the reported latency, and svc.fanout
// [decide→subscriber-visible] extends each (round, subscriber) pair to the
// reported staleness.
func TestServiceSimSpanDecomposition(t *testing.T) {
	rec := obs.New()
	cfg := obsServiceConfig()
	rep, err := (&Engine{Obs: rec}).RunService(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decided == 0 || rep.Shed == 0 {
		t.Fatalf("cell must both decide and shed to exercise every span (decided=%d shed=%d)", rep.Decided, rep.Shed)
	}

	type span struct{ start, end int64 }
	queue := map[int64]span{} // round -> svc.queue
	round := map[int64]span{} // round -> svc.round
	var fanout []obs.Event    // svc.fanout spans
	var shed int              // svc.shed instants
	for _, e := range serviceTrack(t, rec).Events() {
		switch e.Name {
		case "svc.queue":
			queue[e.A] = span{e.TS, e.TS + e.Dur}
		case "svc.round":
			round[e.A] = span{e.TS, e.TS + e.Dur}
		case "svc.fanout":
			fanout = append(fanout, e)
		case "svc.shed":
			shed++
		}
	}
	if len(round) != rep.Decided {
		t.Fatalf("svc.round spans %d != decided %d", len(round), rep.Decided)
	}
	if len(queue) != rep.Decided {
		t.Fatalf("svc.queue spans %d != decided %d", len(queue), rep.Decided)
	}
	if shed != rep.Shed {
		t.Errorf("svc.shed instants %d != shed %d", shed, rep.Shed)
	}
	if len(fanout) != int(rep.DeliveredUpdates) {
		t.Errorf("svc.fanout spans %d != delivered %d", len(fanout), rep.DeliveredUpdates)
	}

	// Per-round contiguity and latency decomposition. Span endpoints were
	// truncated to integer virtual nanoseconds independently of the float
	// millisecond streams, so the tolerance is a few ns, expressed in ms.
	const epsMS = 1e-5
	var latSum float64
	for id, q := range queue {
		r, ok := round[id]
		if !ok {
			t.Fatalf("round %d has svc.queue but no svc.round", id)
		}
		if q.end != r.start {
			t.Errorf("round %d: queue ends at %d but round starts at %d", id, q.end, r.start)
		}
		latSum += float64((q.end-q.start)+(r.end-r.start)) / 1e6
	}
	if gotMean, want := latSum/float64(rep.Decided), rep.LatencyMS.Mean(); math.Abs(gotMean-want) > epsMS {
		t.Errorf("queue+round span mean %.9f ms != reported latency mean %.9f ms", gotMean, want)
	}

	// Staleness decomposition: arrival → fanout end, per delivery.
	var staleSum float64
	for _, f := range fanout {
		q, ok := queue[f.A]
		if !ok {
			t.Fatalf("svc.fanout for round %d without svc.queue", f.A)
		}
		r := round[f.A]
		if f.TS != r.end {
			t.Errorf("round %d sub %d: fanout starts at %d, decide at %d", f.A, f.B, f.TS, r.end)
		}
		staleSum += float64(f.TS+f.Dur-q.start) / 1e6
	}
	if gotMean, want := staleSum/float64(len(fanout)), rep.StalenessMS.Mean(); math.Abs(gotMean-want) > epsMS {
		t.Errorf("fanout span staleness mean %.9f ms != reported %.9f ms", gotMean, want)
	}
}

// TestServiceSimMetricsAccounting pins the unified-snapshot accounting
// identity on the sim service: the one obs.Metrics snapshot must agree with
// the report's ledger, and the ledger must balance — every arrival decided,
// shed, or failed; every decided round fanned out to every representative,
// delivered or shed by the subscriber.
func TestServiceSimMetricsAccounting(t *testing.T) {
	cfg := obsServiceConfig()
	rep, err := (&Engine{Obs: obs.New()}).RunService(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	snap := rep.Metrics
	if snap == nil {
		t.Fatal("report carries no metrics snapshot")
	}
	for name, want := range map[string]int64{
		"service.arrived":      int64(rep.Arrived),
		"service.decided":      int64(rep.Decided),
		"service.shed":         int64(rep.Shed),
		"service.failed":       int64(rep.Failed),
		"service.max_inflight": int64(rep.MaxInFlight),
		"service.max_queued":   int64(rep.MaxQueued),
		"fanout.delivered":     int64(rep.DeliveredUpdates),
		"fanout.shed":          int64(rep.SubDropped),
	} {
		if got := snap.Value(name); got != want {
			t.Errorf("%s: snapshot %d != report %d", name, got, want)
		}
	}
	arrived := snap.Value("service.arrived")
	if sum := snap.Value("service.decided") + snap.Value("service.shed") + snap.Value("service.failed"); sum != arrived {
		t.Errorf("accounting leak: decided+shed+failed = %d, arrived = %d", sum, arrived)
	}
	reps := int64(cfg.representatives())
	if sum := snap.Value("fanout.delivered") + snap.Value("fanout.shed"); sum != snap.Value("service.decided")*reps {
		t.Errorf("fan-out ledger leak: delivered+shed = %d, decided×reps = %d", sum, snap.Value("service.decided")*reps)
	}
}

// TestRunStatsMetricsSnapshot pins RunStats.Metrics on a traced sim trial:
// the snapshot's whole-run schedule facts must equal the stats the run
// reported.
func TestRunStatsMetricsSnapshot(t *testing.T) {
	spec := traceCell(netadv.Adversary{}, 0)
	spec.Obs = obs.New()
	st, err := run.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Metrics == nil {
		t.Fatal("traced run carries no metrics snapshot")
	}
	if got, want := st.Metrics.Value("sim.messages"), int64(st.TotalMsgs); got != want {
		t.Errorf("sim.messages %d != stats msgs %d", got, want)
	}
	if got, want := st.Metrics.Value("sim.bytes"), st.TotalBytes; got != int64(want) {
		t.Errorf("sim.bytes %d != stats bytes %d", got, want)
	}
	if st.Metrics.Value("sim.events") <= 0 {
		t.Error("sim.events not recorded")
	}
	if st.Metrics.Value("sim.virtual_ns") <= 0 {
		t.Error("sim.virtual_ns not recorded")
	}
}
