package backend_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"delphi/internal/backend"
	"delphi/internal/bench"
	"delphi/internal/dist"
	"delphi/internal/feeds"
	"delphi/internal/netadv"
	"delphi/internal/obs"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// soakSpec is the smallest cluster the soak drives: n=4 keeps per-round
// cost low so a thousand-round soak stays in test-suite budget.
func soakSpec(kind run.BackendKind, seed int64) run.RunSpec {
	const n, f = 4, 1
	return run.RunSpec{
		Protocol: run.ProtoDelphi,
		N:        n,
		F:        f,
		Env:      sim.AWS(),
		Seed:     seed,
		Inputs:   bench.OracleInputs(n, 41000, 20, seed),
		Delphi:   quickParams,
		Backend:  kind,
	}
}

// serviceScenario is the Scenario the end-to-end service tests sweep.
func serviceScenario(kind run.BackendKind) bench.Scenario {
	return bench.Scenario{
		Name: "svc-live", Protocol: run.ProtoDelphi, N: 4, Env: sim.AWS(),
		Params: quickParams, Center: 41000, Delta: 20, Backend: kind,
	}
}

func servicePopulation() feeds.Population {
	return feeds.Population{
		Size: 1_000_000, Seed: 7, Base: 5 * time.Millisecond,
		Jitter: dist.Lognormal{Mu: 2, Sigma: 0.5},
	}
}

// openSoakSession opens a service session directly (not through
// bench.RunService) so the soak can measure the session mid-run.
func openSoakSession(t testing.TB, kind run.BackendKind, n int) run.ServiceRunner {
	t.Helper()
	open := backend.Live{}.OpenService
	if kind == run.BackendTCP {
		open = backend.TCP{}.OpenService
	}
	s, err := open(run.RunSpec{N: n}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// soakRounds drives rounds [from, to) through the session with `window`
// concurrent instances, checking every decided round's spread.
func soakRounds(t *testing.T, s run.ServiceRunner, base run.RunSpec, from, to, window int, failed *atomic.Int64) {
	t.Helper()
	sem := make(chan struct{}, window)
	var wg sync.WaitGroup
	for i := from; i < to; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			sp := base
			sp.Seed = run.TrialSeed(base.Seed, i)
			sp.Inputs = bench.OracleInputs(sp.N, 41000, 20, sp.Seed)
			st, err := s.RunRound(sp)
			if err != nil {
				failed.Add(1)
				t.Errorf("round %d: %v", i, err)
				return
			}
			if st.Spread > quickParams.Eps {
				failed.Add(1)
				t.Errorf("round %d: spread %g > ε", i, st.Spread)
			}
		}(i)
	}
	wg.Wait()
}

// TestServiceTCPSoak is the longevity acceptance test: ≥1000 consecutive
// rounds (150 under -short, the CI -race soak budget) multiplexed onto ONE
// persistent tcp session, with goroutine, fd, and heap counts measured
// MID-RUN — after a warm-up fifth of the rounds and again near the end,
// with the session still open — and required flat. Every round must decide
// within ε and the fabric must lose nothing unaccounted: observable drops
// stay zero, stragglers of decided rounds land in the stale counter.
func TestServiceTCPSoak(t *testing.T) {
	rounds := 1000
	if testing.Short() {
		rounds = 150
	}
	const window = 4
	base := soakSpec(run.BackendTCP, 3)
	s := openSoakSession(t, run.BackendTCP, base.N)
	defer s.Close()

	var failed atomic.Int64
	warm := rounds / 5
	soakRounds(t, s, base, 0, warm, window, &failed)

	base0 := obs.TakeResourceSnapshot()

	soakRounds(t, s, base, warm, rounds, window, &failed)

	// Mid-run: the session (listeners, connections, mux readers, buffer
	// pools) is still open — this is steady-state, not post-teardown.
	end := obs.TakeResourceSnapshot()

	if failed.Load() != 0 {
		t.Fatalf("%d rounds failed out of %d", failed.Load(), rounds)
	}
	// Counts may wobble by a connection or two; heap slack is generous for
	// pool high-water marks and allocator noise. Nothing may trend with the
	// round count.
	if grew := end.GrewBeyond(base0, 4, 4, 8<<20); len(grew) != 0 {
		t.Errorf("resources grew across soak: %v (%+v -> %+v)", grew, base0, end)
	}
	if d := s.Drops(); d != 0 {
		t.Errorf("%d unaccounted transport drops across soak", d)
	}
	t.Logf("soak: %d rounds, %d stale frames accounted, goroutines %d->%d, fds %d->%d, heap %d->%d",
		rounds, s.StaleFrames(), base0.Goroutines, end.Goroutines, base0.FDs, end.FDs,
		base0.HeapAlloc, end.HeapAlloc)
}

// TestServiceHubOverlappingRounds pins overlapping-instance safety on the
// in-memory fabric: a deep window of concurrent rounds — each with its own
// tag and master key — must all decide within ε with zero observable loss.
// Stragglers of decided rounds relabel nothing and wedge nothing: they are
// counted stale and their buffers recycled (the runtime mux tests pin the
// relabeled-tag MAC failure itself).
func TestServiceHubOverlappingRounds(t *testing.T) {
	const rounds, window = 64, 8
	base := soakSpec(run.BackendLive, 11)
	s := openSoakSession(t, run.BackendLive, base.N)
	defer s.Close()

	var failed atomic.Int64
	soakRounds(t, s, base, 0, rounds, window, &failed)
	if failed.Load() != 0 {
		t.Fatalf("%d overlapping rounds failed", failed.Load())
	}
	if d := s.Drops(); d != 0 {
		t.Errorf("%d unaccounted drops with overlapping rounds", d)
	}
	// A second burst after the first fully drained: instance GC must have
	// left the session as good as new.
	soakRounds(t, s, base, rounds, 2*rounds, window, &failed)
	if failed.Load() != 0 {
		t.Fatalf("%d rounds failed after instance GC", failed.Load())
	}
}

// TestServiceSessionLifecycle pins the session's error paths: wrong cluster
// size, use after close, and double close.
func TestServiceSessionLifecycle(t *testing.T) {
	base := soakSpec(run.BackendLive, 5)
	s := openSoakSession(t, run.BackendLive, base.N)
	wrongN := base
	wrongN.N = base.N + 1
	if _, err := s.RunRound(wrongN); err == nil {
		t.Error("wrong-n spec did not error")
	}
	if _, err := s.RunRound(base); err != nil {
		t.Fatalf("clean round: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := s.RunRound(base); err == nil {
		t.Error("round on closed session did not error")
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestServiceLiveEndToEnd drives bench.RunService over the live backend:
// real arrivals, real concurrent instances, real fan-out to representative
// subscribers. Pins the accounting identity, the delivery ledger
// (delivered + shed-by-subscriber == decided × representatives), and that
// physical losses stay zero.
func TestServiceLiveEndToEnd(t *testing.T) {
	cfg := bench.ServiceConfig{
		Scenario:        serviceScenario(run.BackendLive),
		Rounds:          40,
		Rate:            300,
		Window:          4,
		Queue:           40,
		Subscribers:     servicePopulation(),
		Representatives: 4,
	}
	rep, err := bench.NewEngine(1).RunService(cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arrived != cfg.Rounds {
		t.Fatalf("arrived %d, want %d", rep.Arrived, cfg.Rounds)
	}
	if rep.Decided+rep.Shed+rep.Failed != rep.Arrived {
		t.Fatalf("accounting leak: %d+%d+%d != %d", rep.Decided, rep.Shed, rep.Failed, rep.Arrived)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d rounds failed on a clean network", rep.Failed)
	}
	if rep.MaxInFlight > cfg.Window {
		t.Fatalf("window breached: %d > %d", rep.MaxInFlight, cfg.Window)
	}
	wantDeliveries := uint64(rep.Decided) * uint64(cfg.Representatives)
	if rep.DeliveredUpdates+rep.SubDropped != wantDeliveries {
		t.Fatalf("delivery ledger: %d delivered + %d shed != %d decided x %d reps",
			rep.DeliveredUpdates, rep.SubDropped, rep.Decided, cfg.Representatives)
	}
	if rep.StalenessMS.N() == 0 || rep.StalenessMS.Min() <= 0 {
		t.Fatal("staleness stream empty or non-positive on a live run")
	}
	if rep.TransportDrops != 0 {
		t.Fatalf("%d unaccounted transport drops", rep.TransportDrops)
	}
	if rep.RoundsPerSec <= 0 {
		t.Fatal("no throughput measured")
	}
}

// TestServiceLiveBackpressure saturates a live service — arrival rate far
// above the cluster's service rate with a tiny window and queue — and
// requires the open loop to shed instead of queueing without bound.
func TestServiceLiveBackpressure(t *testing.T) {
	cfg := bench.ServiceConfig{
		Scenario: serviceScenario(run.BackendLive),
		Rounds:   60,
		Rate:     100000, // arrivals effectively instantaneous
		Window:   2,
		Queue:    2,
	}
	rep, err := bench.NewEngine(1).RunService(cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decided+rep.Shed+rep.Failed != rep.Arrived {
		t.Fatalf("accounting leak under saturation: %d+%d+%d != %d",
			rep.Decided, rep.Shed, rep.Failed, rep.Arrived)
	}
	if rep.Shed == 0 {
		t.Fatal("saturated service shed nothing — backpressure not engaging")
	}
	if rep.MaxInFlight > cfg.Window || rep.MaxQueued > cfg.Queue {
		t.Fatalf("bounds breached: in-flight %d/%d, queued %d/%d",
			rep.MaxInFlight, cfg.Window, rep.MaxQueued, cfg.Queue)
	}
	if rep.QueueMS.N() > 0 && rep.QueueMS.Max() < 0 {
		t.Fatal("negative queueing delay")
	}
}

// TestServiceLiveAdversaries injects network adversaries into a live
// service run and requires liveness — every admitted round still decides —
// and a sane staleness distribution (bounded by the round timeout; the
// adversary may delay, never destroy).
func TestServiceLiveAdversaries(t *testing.T) {
	if testing.Short() {
		t.Skip("adversarial service runs (delay-dominated)")
	}
	for _, adv := range []netadv.Adversary{
		{Kind: netadv.JitterStorm},
		{Kind: netadv.SlowF},
	} {
		t.Run(adv.String(), func(t *testing.T) {
			scn := serviceScenario(run.BackendLive)
			scn.Adversary = adv
			cfg := bench.ServiceConfig{
				Scenario:        scn,
				Rounds:          12,
				Rate:            50,
				Window:          4,
				Queue:           12,
				Subscribers:     servicePopulation(),
				Representatives: 2,
			}
			rep, err := bench.NewEngine(1).RunService(cfg, 17)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 {
				t.Fatalf("adversary %s broke liveness: %d rounds failed", adv, rep.Failed)
			}
			if rep.Decided == 0 {
				t.Fatal("nothing decided under adversary")
			}
			timeoutMS := float64(backend.DefaultTimeout) / float64(time.Millisecond)
			if p99 := rep.StalenessMS.Percentile(0.99); !(p99 > 0) || p99 > timeoutMS {
				t.Fatalf("p99 staleness %.1fms outside (0, %gms]", p99, timeoutMS)
			}
			if rep.TransportDrops != 0 {
				t.Fatalf("adversary caused %d unaccounted drops (it may delay, never drop)", rep.TransportDrops)
			}
		})
	}
}

// BenchmarkServiceTCP measures service-mode throughput and subscriber
// staleness on the tcp backend; scripts/bench.sh records rounds/s and p99
// staleness in BENCH_7.json.
func BenchmarkServiceTCP(b *testing.B) {
	cfg := bench.ServiceConfig{
		Scenario:        serviceScenario(run.BackendTCP),
		Rounds:          200,
		Rate:            400,
		Window:          4,
		Queue:           64,
		Subscribers:     servicePopulation(),
		Representatives: 4,
	}
	for i := 0; i < b.N; i++ {
		rep, err := bench.NewEngine(1).RunService(cfg, 9)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed != 0 {
			b.Fatalf("%d rounds failed", rep.Failed)
		}
		b.ReportMetric(rep.RoundsPerSec, "rounds/s")
		b.ReportMetric(rep.StalenessMS.Percentile(0.99), "p99_staleness_ms")
	}
}

// TestServiceLiveMetricsAccounting is the global accounting-identity gate
// on a real backend: one obs.Metrics snapshot must unify the service
// ledger, the fan-out delivery ledger, and the fabric's physical-loss
// accounting (observed transport drops and demux stale frames), and every
// identity must balance — no event lost between subsystem counters.
func TestServiceLiveMetricsAccounting(t *testing.T) {
	rec := obs.New()
	cfg := bench.ServiceConfig{
		Scenario:        serviceScenario(run.BackendLive),
		Rounds:          40,
		Rate:            300,
		Window:          4,
		Queue:           40,
		Subscribers:     servicePopulation(),
		Representatives: 4,
		Obs:             rec,
	}
	rep, err := bench.NewEngine(1).RunService(cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	snap := rep.Metrics
	if snap == nil {
		t.Fatal("report carries no metrics snapshot")
	}
	for name, want := range map[string]int64{
		"service.arrived":  int64(rep.Arrived),
		"service.decided":  int64(rep.Decided),
		"service.shed":     int64(rep.Shed),
		"service.failed":   int64(rep.Failed),
		"fanout.delivered": int64(rep.DeliveredUpdates),
		"fanout.shed":      int64(rep.SubDropped),
		"mux.stale_frames": int64(rep.StaleFrames),
		"transport.drops":  int64(rep.TransportDrops),
	} {
		if got := snap.Value(name); got != want {
			t.Errorf("%s: snapshot %d != report %d", name, got, want)
		}
	}
	if sum := snap.Value("service.decided") + snap.Value("service.shed") + snap.Value("service.failed"); sum != snap.Value("service.arrived") {
		t.Errorf("accounting leak: decided+shed+failed = %d, arrived = %d", sum, snap.Value("service.arrived"))
	}
	reps := int64(cfg.Representatives)
	if sum := snap.Value("fanout.delivered") + snap.Value("fanout.shed"); sum != snap.Value("service.decided")*reps {
		t.Errorf("fan-out ledger leak: delivered+shed = %d, decided×reps = %d", sum, snap.Value("service.decided")*reps)
	}
	if snap.Value("transport.drops") != 0 {
		t.Errorf("%d unaccounted transport drops on a clean network", snap.Value("transport.drops"))
	}
	// A live service run with a recorder also carries lifecycle spans and
	// driver activity — the trace side of the same run must not be empty.
	if rec.EventCount() == 0 {
		t.Error("live service run recorded no trace events")
	}
	if snap.Value("driver.flushes") == 0 {
		t.Error("driver.flushes not recorded on a live run")
	}
}
