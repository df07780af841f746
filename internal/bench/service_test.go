package bench_test

import (
	"math"
	"testing"
	"time"

	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/dist"
	"delphi/internal/feeds"
	"delphi/internal/sim"
)

// serviceScenario is the quick per-round workload the service tests drive.
func serviceScenario() bench.Scenario {
	return bench.Scenario{
		Name: "svc", Protocol: bench.ProtoDelphi, N: 8, Env: sim.AWS(),
		Params: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2},
		Center: 41000, Delta: 20,
	}
}

func serviceConfig(rounds int, rate float64) bench.ServiceConfig {
	return bench.ServiceConfig{
		Scenario: serviceScenario(),
		Rounds:   rounds,
		Rate:     rate,
		Window:   4,
		Queue:    8,
		Subscribers: feeds.Population{
			Size: 1_000_000, Seed: 7, Base: 5 * time.Millisecond,
			Jitter: dist.Lognormal{Mu: 2, Sigma: 0.5},
		},
		Representatives: 4,
	}
}

// TestServiceSimDeterministic is the acceptance gate: a simulator service
// run is byte-identical — same fingerprint — across reruns and across
// worker counts 1, 4, and 16, for both arrival laws.
func TestServiceSimDeterministic(t *testing.T) {
	for _, arrivals := range []bench.ArrivalKind{bench.ArrivalPoisson, bench.ArrivalBursty} {
		t.Run(arrivals.String(), func(t *testing.T) {
			cfg := serviceConfig(60, 200)
			cfg.Arrivals = arrivals
			var want string
			for _, workers := range []int{1, 1, 4, 16} {
				rep, err := bench.NewEngine(workers).RunService(cfg, 42)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got := rep.Fingerprint()
				if want == "" {
					want = got
					if rep.Decided == 0 {
						t.Fatal("service decided nothing")
					}
					continue
				}
				if got != want {
					t.Fatalf("workers=%d fingerprint diverges:\n%s\nvs\n%s", workers, got, want)
				}
			}
		})
	}
}

// TestServiceSimAccounting pins the round accounting identity and the
// backpressure invariants under saturation: arrival rate far above service
// rate, every arrival lands in exactly one of decided/shed, the queue and
// window never exceed their bounds, and queueing delay is visible in the
// latency split.
func TestServiceSimAccounting(t *testing.T) {
	cases := []struct {
		name   string
		rate   float64
		window int
		queue  int
	}{
		{"underload", 50, 4, 8},
		{"saturated", 5000, 4, 8},
		{"no-queue", 5000, 2, 0},
		{"deep-queue", 5000, 1, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := serviceConfig(120, tc.rate)
			cfg.Window = tc.window
			cfg.Queue = tc.queue
			rep, err := bench.NewEngine(4).RunService(cfg, 7)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Arrived != cfg.Rounds {
				t.Fatalf("arrived %d, want %d", rep.Arrived, cfg.Rounds)
			}
			if rep.Decided+rep.Shed+rep.Failed != rep.Arrived {
				t.Fatalf("accounting leak: %d decided + %d shed + %d failed != %d arrived",
					rep.Decided, rep.Shed, rep.Failed, rep.Arrived)
			}
			if rep.Failed != 0 {
				t.Fatalf("%d rounds failed on the simulator", rep.Failed)
			}
			if rep.MaxInFlight > tc.window {
				t.Fatalf("window breached: %d in flight > %d", rep.MaxInFlight, tc.window)
			}
			if rep.MaxQueued > tc.queue {
				t.Fatalf("queue breached: %d queued > %d", rep.MaxQueued, tc.queue)
			}
			if tc.rate >= 5000 && tc.queue == 0 && rep.Shed == 0 {
				t.Fatal("saturation with no queue shed nothing — backpressure not engaging")
			}
			if rep.LatencyMS.N() != rep.Decided || rep.QueueMS.N() != rep.Decided {
				t.Fatalf("stream counts (%d latency, %d queue) disagree with %d decided",
					rep.LatencyMS.N(), rep.QueueMS.N(), rep.Decided)
			}
			// End-to-end latency decomposes into wait + service per round, so
			// the means must decompose too (same counts, exact arithmetic
			// modulo float error).
			if diff := math.Abs(rep.LatencyMS.Mean() - rep.QueueMS.Mean() - rep.ServiceMS.Mean()); diff > 1e-6 {
				t.Fatalf("latency mean %.6f != queue %.6f + service %.6f",
					rep.LatencyMS.Mean(), rep.QueueMS.Mean(), rep.ServiceMS.Mean())
			}
			if tc.queue > 0 && tc.rate >= 5000 && rep.QueueMS.Max() <= 0 {
				t.Fatal("saturated run shows zero queueing delay")
			}
		})
	}
}

// TestServiceSimStaleness pins the fan-out model: staleness covers every
// (decided round, representative) pair and is bounded below by end-to-end
// latency plus the population's base propagation delay.
func TestServiceSimStaleness(t *testing.T) {
	cfg := serviceConfig(40, 100)
	rep, err := bench.NewEngine(2).RunService(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantDeliveries := uint64(rep.Decided) * uint64(cfg.Representatives)
	if rep.DeliveredUpdates != wantDeliveries {
		t.Fatalf("delivered %d updates, want %d (%d rounds x %d reps)",
			rep.DeliveredUpdates, wantDeliveries, rep.Decided, cfg.Representatives)
	}
	if rep.StalenessMS.N() != int(wantDeliveries) {
		t.Fatalf("staleness stream has %d samples, want %d", rep.StalenessMS.N(), wantDeliveries)
	}
	baseMS := float64(cfg.Subscribers.Base) / float64(time.Millisecond)
	if rep.StalenessMS.Min() < rep.LatencyMS.Min()+baseMS {
		t.Fatalf("staleness min %.3f below latency min %.3f + base %.3f — model dropped a term",
			rep.StalenessMS.Min(), rep.LatencyMS.Min(), baseMS)
	}
	if rep.StaleFrames != 0 || rep.TransportDrops != 0 || rep.SubDropped != 0 {
		t.Fatalf("simulator model reported physical losses: stale=%d drops=%d subdropped=%d",
			rep.StaleFrames, rep.TransportDrops, rep.SubDropped)
	}
}

// TestServiceValidation pins config validation.
func TestServiceValidation(t *testing.T) {
	bad := []func(*bench.ServiceConfig){
		func(c *bench.ServiceConfig) { c.Rounds = 0 },
		func(c *bench.ServiceConfig) { c.Rate = 0 },
		func(c *bench.ServiceConfig) { c.Rate = -3 },
		func(c *bench.ServiceConfig) { c.Queue = -1 },
		func(c *bench.ServiceConfig) { c.Window = -1 },
		func(c *bench.ServiceConfig) { c.Representatives = -1 },
		func(c *bench.ServiceConfig) { c.Scenario.N = 2 },
	}
	for i, mutate := range bad {
		cfg := serviceConfig(10, 10)
		mutate(&cfg)
		if _, err := bench.NewEngine(1).RunService(cfg, 1); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestServiceScenariosSweep pins the Matrix wiring: the same service
// configuration sweeps across expanded cells, one report per cell.
func TestServiceScenariosSweep(t *testing.T) {
	m := bench.Matrix{Base: serviceScenario(), Ns: []int{8, 16}}
	cells := m.Scenarios()
	reports := make([]*bench.ServiceReport, len(cells))
	for i, cell := range cells {
		cfg := serviceConfig(20, 100)
		cfg.Scenario = cell
		r, err := bench.NewEngine(4).RunService(cfg, 11)
		if err != nil {
			t.Fatalf("cell %q: %v", cell.Name, err)
		}
		if r.Decided == 0 {
			t.Fatalf("cell %q decided nothing", cell.Name)
		}
		reports[i] = r
	}
	// Bigger clusters are slower per round; the overlay must reflect the
	// underlying service times, so n=16's mean service time exceeds n=8's.
	if reports[1].ServiceMS.Mean() <= reports[0].ServiceMS.Mean() {
		t.Fatalf("service time did not grow with n: n=8 %.3fms vs n=16 %.3fms",
			reports[0].ServiceMS.Mean(), reports[1].ServiceMS.Mean())
	}
}

// BenchmarkServiceSim measures the deterministic service model's
// throughput metrics; scripts/bench.sh records rounds/s and p99 staleness
// in BENCH_7.json (virtual-time quantities, so they are reproducible).
func BenchmarkServiceSim(b *testing.B) {
	cfg := serviceConfig(500, 200)
	for i := 0; i < b.N; i++ {
		rep, err := bench.NewEngine(0).RunService(cfg, 9)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.RoundsPerSec, "rounds/s")
		b.ReportMetric(rep.StalenessMS.Percentile(0.99), "p99_staleness_ms")
	}
}

// TestStreamPercentile pins the quantile helper added for the service
// reports.
func TestStreamPercentile(t *testing.T) {
	var s bench.Stream
	s.KeepSamples = true
	for i := 100; i >= 1; i-- { // reversed: Percentile must sort
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.99, 99.01},
	}
	for _, tc := range cases {
		if got := s.Percentile(tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Percentile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	var empty bench.Stream
	if !math.IsNaN(empty.Percentile(0.5)) {
		t.Error("empty stream percentile not NaN")
	}
}
