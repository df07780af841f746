package binaa_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"delphi/internal/binaa"
	"delphi/internal/node"
	"delphi/internal/sim"
)

// delivery is one Deliver call.
type delivery struct {
	from node.ID
	m    node.Message
}

// deliver dispatches m to the engine the way core.Delphi.Deliver does.
func deliver(e *binaa.Engine, from node.ID, m node.Message) {
	switch msg := m.(type) {
	case *binaa.Echo1:
		e.HandleEcho1(from, msg)
	case *binaa.Echo2:
		e.HandleEcho2(from, msg)
	case *binaa.Echo1C:
		e.HandleEcho1C(from, msg)
	case *binaa.Echo2C:
		e.HandleEcho2C(from, msg)
	}
}

// Allocation-gate fixture: n=16, t=5, so t+1=6 and n-t=11. The engine holds
// instances a and b, which senders 0..11 also announce with value 1, and c,
// which only this node holds (every other sender votes it 0 implicitly).
var (
	gateCfg = binaa.Config{Config: node.Config{N: 16, F: 5}, Rounds: 10}
	gateA   = binaa.IID{K: 100}
	gateB   = binaa.IID{K: 101}
	gateC   = binaa.IID{K: 102}
)

func warmedEngine(t testing.TB) (*binaa.Engine, *binaa.SinkEnv) {
	t.Helper()
	e, err := binaa.NewEngine(gateCfg, map[binaa.IID]float64{gateA: 1, gateB: 1, gateC: 1}, func(map[binaa.IID]float64) {})
	if err != nil {
		t.Fatal(err)
	}
	env := &binaa.SinkEnv{Nodes: gateCfg.N, Faults: gateCfg.F}
	e.Start(env)
	for from := 0; from < 12; from++ {
		e.HandleEcho1(node.ID(from), &binaa.Echo1{Round: 1, Init: true, Vals: []binaa.IVal{
			{ID: gateA, Round: 1, V: 1}, {ID: gateB, Round: 1, V: 1},
		}})
	}
	return e, env
}

// toRound2 completes round 1 of a warmedEngine: bitmaps from senders 0..10
// decide a and b at 1, their zeros bundles decide c at 0 and are the n-t the
// round waits for, so the engine opens round 2 with states (1, 1, 0).
func toRound2(e *binaa.Engine) {
	for from := node.ID(0); from < 11; from++ {
		e.HandleEcho2C(from, &binaa.Echo2C{Round: 1, Bits: []byte{3}})
	}
	for from := node.ID(0); from < 11; from++ {
		e.HandleEcho2(from, &binaa.Echo2{Round: 1, Zeros: true})
	}
}

// keepAB is a round-2 compressed bundle that leaves a sender's two round-1
// entries (a and b at 1) unchanged and announces nothing new.
func keepAB() *binaa.Echo1C {
	return &binaa.Echo1C{Round: 2, PrevCount: 2, Deltas: []byte{0}}
}

// sixKeepAB completes round 1 and delivers senders 0..5's keepAB.
func sixKeepAB(e *binaa.Engine) {
	toRound2(e)
	for from := node.ID(0); from < 6; from++ {
		e.HandleEcho1C(from, keepAB())
	}
}

// TestDeliverAllocs is the allocation gate of the per-delivery path: a
// delivered message that crosses no threshold — a duplicate, or a new vote
// that lands strictly between or beyond t+1 and n-t — must allocate nothing
// and emit nothing. Each case sends from a fresh sender per run, so the
// votes counted are new ones, not replays of one message. The cases on an
// engine that has left round 1 add: ECHO2 traffic for the left round leaves
// no trace at all, and a compressed bundle whose base round is behind is
// built in the base bundle, not in a copy.
func TestDeliverAllocs(t *testing.T) {
	cases := []struct {
		name string
		// warm delivers whatever creates the tallies the case lands in;
		// next returns the i-th measured delivery.
		warm func(e *binaa.Engine)
		runs int
		next func(i int) (node.ID, node.Message)
		// round is where the engine must stand before and after (default 1);
		// frozen requires an unchanged DebugState; check inspects the engine
		// after the measured deliveries.
		round  int
		frozen bool
		check  func(t *testing.T, e *binaa.Engine)
	}{
		{
			// a's ECHO1(1) tally stands at 12 > n-t: senders 12..15 add
			// votes 13..16.
			name: "Echo1 non-init, non-crossing",
			runs: 4,
			next: func(i int) (node.ID, node.Message) {
				return node.ID(12 + i), &binaa.Echo1{Vals: []binaa.IVal{{ID: gateA, Round: 1, V: 1}}}
			},
		},
		{
			// Senders 0..9 vote a's and b's u = 1 by bitmap: their implicit
			// tallies count the votes (10 < n-t) in the round's voter slab
			// and stay implicit.
			name: "Echo2C for u, implicit",
			runs: 10,
			next: func(i int) (node.ID, node.Message) {
				return node.ID(i), &binaa.Echo2C{Round: 1, Bits: []byte{3}}
			},
			check: func(t *testing.T, e *binaa.Engine) {
				for _, id := range []binaa.IID{gateA, gateB} {
					if !e.Implicit(1, id) {
						t.Errorf("%v's round-1 tally materialised on bitmap votes for its u", id)
					}
				}
			},
		},
		{
			// Sender 0's bitmap starts the ECHO2(1) counts of a and b;
			// senders 1..9 raise them to 10 < n-t.
			name: "Echo2C non-crossing",
			warm: func(e *binaa.Engine) { e.HandleEcho2C(0, &binaa.Echo2C{Round: 1, Bits: []byte{3}}) },
			runs: 9,
			next: func(i int) (node.ID, node.Message) {
				return node.ID(1 + i), &binaa.Echo2C{Round: 1, Bits: []byte{3}}
			},
		},
		{
			name: "Echo2C duplicate",
			warm: func(e *binaa.Engine) { e.HandleEcho2C(0, &binaa.Echo2C{Round: 1, Bits: []byte{3}}) },
			runs: 5,
			next: func(int) (node.ID, node.Message) {
				return 0, &binaa.Echo2C{Round: 1, Bits: []byte{3}}
			},
		},
		{
			// Sender 0's zeros bundle creates c's ECHO2(0) tally; senders
			// 1..9 raise it to 10 < n-t.
			name: "Echo2 zeros, non-crossing",
			warm: func(e *binaa.Engine) { e.HandleEcho2(0, &binaa.Echo2{Round: 1, Zeros: true}) },
			runs: 9,
			next: func(i int) (node.ID, node.Message) {
				return node.ID(1 + i), &binaa.Echo2{Round: 1, Zeros: true}
			},
		},
		{
			// Senders 11..15 were not among the n-t the round left on.
			name: "Echo2 zeros, left round",
			warm: toRound2, round: 2, frozen: true,
			runs: 5,
			next: func(i int) (node.ID, node.Message) {
				return node.ID(11 + i), &binaa.Echo2{Round: 1, Zeros: true}
			},
		},
		{
			// Sender 11's round-1 bundle is stored, 12..15's never came (the
			// bitmap used to be buffered for it).
			name: "Echo2C, left round",
			warm: toRound2, round: 2, frozen: true,
			runs: 5,
			next: func(i int) (node.ID, node.Message) {
				return node.ID(11 + i), &binaa.Echo2C{Round: 1, Bits: []byte{3}}
			},
		},
		{
			name: "Echo2 explicit, left round",
			warm: toRound2, round: 2, frozen: true,
			runs: 5,
			next: func(i int) (node.ID, node.Message) {
				return node.ID(11 + i), &binaa.Echo2{Vals: []binaa.IVal{{ID: gateA, Round: 1, V: 1}, {ID: gateC, Round: 1, V: 0}}}
			},
		},
		{
			// Senders 0..5 take the round-2 ECHO1 tallies to t+1 = 6; senders
			// 6..9 add votes 7..10 < n-t, and are the 7th..10th bundle of the
			// round, so no zeros bundle goes out either. Round 2 is quiet:
			// sender 0's bundle, its first, repeats a clean round-1 bundle
			// and agrees with every tally, so the rest are only recorded.
			name:  "unchanged Echo1C in a quiet round",
			warm:  sixKeepAB,
			round: 2,
			runs:  4,
			next:  func(i int) (node.ID, node.Message) { return node.ID(6 + i), keepAB() },
			check: func(t *testing.T, e *binaa.Engine) {
				if !e.Quiet(2) {
					t.Error("round 2 is not quiet")
				}
				for from := node.ID(0); from < 10; from++ {
					if _, clean := e.Clean(2, from); !clean {
						t.Errorf("sender %d's unchanged round-2 bundle is not clean", from)
					}
				}
				for _, id := range []binaa.IID{gateA, gateB, gateC} {
					if !e.Implicit(2, id) {
						t.Errorf("%v's round-2 tally materialised", id)
					}
				}
			},
		},
		{
			// The same deliveries walk every entry when round 2 is not quiet:
			// sender 15's explicit ECHO2 has materialised c's round-2 tally
			// before the round's first bundle.
			name: "Echo1C in place",
			warm: func(e *binaa.Engine) {
				e.HandleEcho2(15, &binaa.Echo2{Vals: []binaa.IVal{{ID: gateC, Round: 2, V: 0}}})
				sixKeepAB(e)
			},
			round: 2,
			runs:  4,
			next:  func(i int) (node.ID, node.Message) { return node.ID(6 + i), keepAB() },
			check: func(t *testing.T, e *binaa.Engine) {
				if e.Quiet(2) {
					t.Error("round 2 is quiet after a tally materialised ahead of its first bundle")
				}
				for from := node.ID(0); from < 12; from++ {
					base, _ := e.StoredBundle(1, from)
					next, resolved := e.StoredBundle(2, from)
					if from >= 10 {
						if base != 2 || next != -1 {
							t.Errorf("sender %d sent no round-2 bundle: slots hold %d and %d entries, want 2 and none", from, base, next)
						}
					} else if base != -1 || next != 2 || !resolved {
						t.Errorf("sender %d: base slot holds %d entries, successor %d (resolved=%v); want none, 2, true", from, base, next, resolved)
					}
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, env := warmedEngine(t)
			if c.warm != nil {
				c.warm(e)
			}
			if c.round == 0 {
				c.round = 1
			}
			if e.Round() != c.round {
				t.Fatalf("fixture stands in round %d, want %d", e.Round(), c.round)
			}
			state := e.DebugState()
			// AllocsPerRun makes one warm-up call before the measured runs.
			ds := make([]delivery, c.runs)
			for i := range ds {
				ds[i].from, ds[i].m = c.next(i)
			}
			sends, i := env.Sends, 0
			allocs := testing.AllocsPerRun(c.runs-1, func() {
				deliver(e, ds[i].from, ds[i].m)
				i++
			})
			if allocs != 0 {
				t.Errorf("%.1f allocations per delivery, want 0", allocs)
			}
			if env.Sends != sends {
				t.Errorf("%d messages emitted by non-crossing deliveries, want 0", env.Sends-sends)
			}
			if e.Round() != c.round || e.Done() {
				t.Errorf("engine moved to round %d (done=%v)", e.Round(), e.Done())
			}
			if after := e.DebugState(); c.frozen && after != state {
				t.Errorf("engine state moved:\n--- before\n%s--- after\n%s", state, after)
			}
			if c.check != nil {
				c.check(t, e)
			}
		})
	}
}

// tap records every message delivered to the process it wraps.
type tap struct {
	node.Process
	got []delivery
}

func (p *tap) Deliver(from node.ID, m node.Message) {
	p.got = append(p.got, delivery{from, m})
	p.Process.Deliver(from, m)
}

// captureTrace runs Delphi's BinAA workload (n=16, t=5, the transcript
// corpus' parameters, WAN latencies) and returns node 0's configuration,
// inputs and ordered deliveries. Replaying the deliveries into a fresh
// engine with the same inputs reproduces node 0's run exactly: the engine is
// deterministic and its own messages come back to it through the trace.
func captureTrace(t testing.TB) (binaa.Config, map[binaa.IID]float64, []delivery) {
	t.Helper()
	const n, f = 16, 5
	p := transcriptParams
	cfg := binaa.Config{Config: node.Config{N: n, F: f}, Rounds: p.Rounds(n)}
	rng := rand.New(rand.NewSource(7))
	procs := make([]node.Process, n)
	var in0 map[binaa.IID]float64
	var tapped *tap
	for i := range procs {
		in := delphiInputs(p, 41000+48*rng.Float64())
		bp, err := binaa.NewProcess(cfg, in)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = bp
		if i == 0 {
			in0 = in
			tapped = &tap{Process: bp}
			procs[i] = tapped
		}
	}
	r, err := sim.NewRunner(cfg.Config, sim.AWS(), 7, procs)
	if err != nil {
		t.Fatal(err)
	}
	if res := r.Run(); len(res.Stats[0].Output) == 0 {
		t.Fatal("node 0 produced no output")
	}
	return cfg, in0, tapped.got
}

// replay starts a fresh engine, hands it and each delivery of the trace in
// turn to step (which makes the deliver call), and reports whether the
// engine finished.
func replay(t testing.TB, cfg binaa.Config, in map[binaa.IID]float64, trace []delivery, step func(e *binaa.Engine, d delivery)) bool {
	t.Helper()
	e, err := binaa.NewEngine(cfg, in, func(map[binaa.IID]float64) {})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(&binaa.SinkEnv{Nodes: cfg.N, Faults: cfg.F})
	for _, d := range trace {
		step(e, d)
	}
	return e.Done()
}

// TestMessageAliasing pins the ownership rule stated in the package doc and
// on node.Process.Deliver: the simulator hands one message pointer to every
// receiver, so a handler may neither mutate a delivered message nor keep a
// slice of it that it later writes through. Two engines consume the same
// message values — a whole run's worth, including compressed bundles that
// are buffered by reference until their base round arrives — and every
// message must still marshal to the bytes it had before.
func TestMessageAliasing(t *testing.T) {
	cfg, in, trace := captureTrace(t)
	before := make([][]byte, len(trace))
	for i, d := range trace {
		before[i], _ = d.m.MarshalBinary()
	}
	for pass := 0; pass < 2; pass++ {
		if !replay(t, cfg, in, trace, func(e *binaa.Engine, d delivery) { deliver(e, d.from, d.m) }) {
			t.Fatalf("pass %d: replayed engine did not finish", pass)
		}
	}
	for i, d := range trace {
		after, _ := d.m.MarshalBinary()
		if !bytes.Equal(before[i], after) {
			t.Errorf("delivery %d (type %d from %v) was mutated by a handler", i, d.m.Type(), d.from)
		}
	}
}

// deliveryKind names the handler path a message takes in the engine about
// to receive it: echo2-late is ECHO2 traffic of any form for a round the
// engine has left (dropped), echo1c-inplace a compressed bundle whose base
// round is behind the engine (rebuilt in the base bundle; Echo1C is then the
// copied or buffered rest).
func deliveryKind(e *binaa.Engine, m node.Message) string {
	switch msg := m.(type) {
	case *binaa.Echo1:
		if msg.Init {
			return "Echo1/init"
		}
		return "Echo1/amp"
	case *binaa.Echo2:
		if msg.Zeros {
			if int(msg.Round) < e.Round() {
				return "echo2-late"
			}
			return "Echo2/zeros"
		}
		if !slices.ContainsFunc(msg.Vals, func(v binaa.IVal) bool { return int(v.Round) >= e.Round() }) {
			return "echo2-late"
		}
		return "Echo2/vals"
	case *binaa.Echo1C:
		if int(msg.Round)-1 < e.Round() {
			return "echo1c-inplace"
		}
		return "Echo1C"
	case *binaa.Echo2C:
		if int(msg.Round) < e.Round() {
			return "echo2-late"
		}
		return "Echo2C"
	}
	return "other"
}

// BenchmarkEngineDeliver is the engine's micro-number: node 0's deliveries
// from a real n=16 run replayed into a fresh engine, per handler path. The
// standard ns/op and allocs/op columns are for one whole replay (every
// path); ns/msg and allocs/msg are the cost of one message of the named path
// in its real context — the engine state a message meets decides its cost,
// so messages are never timed in isolation.
func BenchmarkEngineDeliver(b *testing.B) {
	cfg, in, trace := captureTrace(b)
	for _, kind := range []string{"Echo1/init", "Echo1/amp", "Echo1C", "echo1c-inplace", "Echo2/zeros", "Echo2/vals", "Echo2C", "echo2-late"} {
		b.Run(kind, func(b *testing.B) {
			// One instrumented replay counts the path's allocations exactly
			// (ReadMemStats stops the world, so not inside the timed loop).
			var mallocs uint64
			var ms runtime.MemStats
			replay(b, cfg, in, trace, func(e *binaa.Engine, d delivery) {
				if deliveryKind(e, d.m) != kind {
					deliver(e, d.from, d.m)
					return
				}
				runtime.ReadMemStats(&ms)
				at := ms.Mallocs
				deliver(e, d.from, d.m)
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - at
			})
			var busy time.Duration
			msgs := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				replay(b, cfg, in, trace, func(e *binaa.Engine, d delivery) {
					if deliveryKind(e, d.m) != kind {
						deliver(e, d.from, d.m)
						return
					}
					at := time.Now()
					deliver(e, d.from, d.m)
					busy += time.Since(at)
					msgs++
				})
			}
			if msgs == 0 {
				b.Skip("no such message in the trace")
			}
			perReplay := msgs / b.N
			b.ReportMetric(float64(busy.Nanoseconds())/float64(msgs), "ns/msg")
			b.ReportMetric(float64(mallocs)/float64(perReplay), "allocs/msg")
			b.ReportMetric(float64(perReplay), "msgs/replay")
		})
	}
}
