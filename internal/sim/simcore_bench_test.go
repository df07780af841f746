package sim_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"delphi/internal/netadv"
	"delphi/internal/node"
	"delphi/internal/sim"
)

// floodMsg is the benchmark's protocol message: fixed wire size, no payload
// allocation anywhere on its path.
type floodMsg struct {
	Round int32
}

func (floodMsg) Type() uint8                           { return 0xF0 }
func (floodMsg) WireSize() int                         { return 64 }
func (floodMsg) AppendBinary(b []byte) ([]byte, error) { return append(b, 0, 0, 0, 0), nil }

// flood is a synthetic all-to-all protocol: every node broadcasts each
// round, advances when it has heard n messages of its current round, and
// halts after Rounds rounds. Its Deliver path allocates nothing, so the
// benchmark's allocs/event and ns/event measure the simulator core — heap
// maintenance, latency/cost sampling, step accounting — rather than any
// protocol's bookkeeping.
type flood struct {
	env    node.Env
	rounds int32
	round  int32
	heard  []int32 // per-round receipt counts (async: future rounds arrive early)
}

func (p *flood) Init(env node.Env) {
	p.env = env
	p.heard = make([]int32, p.rounds)
	env.Broadcast(floodMsg{Round: 0})
}

func (p *flood) Deliver(_ node.ID, m node.Message) {
	fm, ok := m.(floodMsg)
	if !ok || fm.Round < p.round || fm.Round >= p.rounds {
		return
	}
	p.heard[fm.Round]++
	for p.round < p.rounds && p.heard[p.round] >= int32(p.env.N()) {
		p.round++
		if p.round >= p.rounds {
			p.env.Output(float64(p.round))
			p.env.Halt()
			return
		}
		p.env.Broadcast(floodMsg{Round: p.round})
	}
}

// runFlood executes one flood run and returns the processed event count.
func runFlood(b *testing.B, n int, rule sim.DelayRule, opts ...sim.Option) int {
	b.Helper()
	procs := make([]node.Process, n)
	for i := range procs {
		procs[i] = &flood{rounds: 12}
	}
	if rule != nil {
		opts = append(opts, sim.WithDelayRule(rule))
	}
	r, err := sim.NewRunner(node.Config{N: n, F: (n - 1) / 3}, sim.AWS(), 7, procs, opts...)
	if err != nil {
		b.Fatal(err)
	}
	res := r.Run()
	if res.Events == 0 {
		b.Fatal("no events processed")
	}
	return res.Events
}

// BenchmarkSimCore pins the simulator core's per-event cost: ns/event and
// allocs/event for an allocation-free synthetic protocol at the harness'
// three characteristic sizes, on a clean network and under the heavy-tailed
// jitter-storm adversary (the worst case for the delay-rule fast path).
// These numbers are the regression gate for the event loop; scripts/bench.sh
// records them in BENCH_5.json. n=4 and n=16 are the small-run guard: their
// windows hold a few events each, so B/op and ns/event there show what the
// calendar and the window barrier cost a run too small to need them.
func BenchmarkSimCore(b *testing.B) {
	for _, n := range []int{4, 16, 40, 160} {
		for _, adv := range []struct {
			name string
			rule func() sim.DelayRule
		}{
			{"clean", func() sim.DelayRule { return nil }},
			{"jitter-storm", func() sim.DelayRule {
				a := netadv.Adversary{Kind: netadv.JitterStorm}
				return a.Rule(n, (n-1)/3, 7)
			}},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, adv.name), func(b *testing.B) {
				b.ReportAllocs()
				var events int
				start := time.Now()
				startAllocs := allocCount(b)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					events += runFlood(b, n, adv.rule())
				}
				b.StopTimer()
				elapsed := time.Since(start)
				allocs := allocCount(b) - startAllocs
				b.ReportMetric(float64(elapsed.Nanoseconds())/float64(events), "ns/event")
				b.ReportMetric(float64(allocs)/float64(events), "allocs/event")
				b.ReportMetric(float64(events)/float64(b.N), "events/run")
			})
		}
	}
}

// allocCount reads the cumulative heap allocation count.
func allocCount(b *testing.B) uint64 {
	b.Helper()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
