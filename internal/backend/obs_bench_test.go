package backend

import (
	"testing"
	"time"

	"delphi/internal/bench"
	"delphi/internal/obs"
	"delphi/internal/sim"
)

// BenchmarkTCPObsOverhead measures what an attached recorder costs the
// frame-heavy ACS tcp cell (the BenchmarkTCPFrameThroughput workload: FIN
// at n=16, tens of thousands of authenticated frames per trial): with
// tracing on, every driver flush bumps two counters and emits an instant,
// every protocol phase lands a span on its node's track, and every dial an
// instant on the shared transport track. Both lanes run as alternating
// trials of one paired benchmark over their own persistent sessions, and
// the order within an iteration alternates too — whichever lane runs first
// in a pair tends to read faster (cache and frequency warm-up drift), and
// alternation cancels that bias instead of charging it to the second lane.
// scripts/bench.sh records off/on ms/trial and gates the ratio at ≤ 1.05
// in BENCH_9.json.
func BenchmarkTCPObsOverhead(b *testing.B) {
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
		spec    bench.RunSpec
		sess    bench.BackendSession
		elapsed time.Duration
		trials  int
	}
	lanes := [2]lane{{name: "off", spec: spec}, {name: "on", spec: spec}}
	lanes[1].spec.Obs = obs.New()
	for i := range lanes {
		sess := openSession(b, bench.BackendTCP, n, false)
		defer sess.Close()
		// Warm the mesh: the first trial dials n² connections.
		if _, err := sess.Run(lanes[i].spec); err != nil {
			b.Fatal(err)
		}
		lanes[i].sess = sess
	}
	runLane := func(l int) {
		start := time.Now()
		r, err := lanes[l].sess.Run(lanes[l].spec)
		lanes[l].elapsed += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		if r.TransportDrops != 0 {
			b.Fatalf("%s trial dropped %d frames", lanes[l].name, r.TransportDrops)
		}
		lanes[l].trials++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runLane(i % 2)
		runLane(1 - i%2)
	}
	b.StopTimer()
	if lanes[1].spec.Obs.EventCount() == 0 {
		b.Fatal("traced lane recorded no events")
	}
	ms := func(l lane) float64 {
		return float64(l.elapsed.Nanoseconds()) / float64(l.trials) / 1e6
	}
	b.ReportMetric(ms(lanes[0]), "off_ms/trial")
	b.ReportMetric(ms(lanes[1]), "on_ms/trial")
	b.ReportMetric(ms(lanes[1])/ms(lanes[0]), "tracing_overhead")
}
