package binaa

import (
	"fmt"
	"math"
	"testing"

	"delphi/internal/netadv"
	"delphi/internal/node"
	"delphi/internal/sim"
)

// TestRoundsHalve checks Algorithm 1's invariant round by round, not only on
// the final weights: with binary inputs, the honest decisions of every
// instance after round r span at most 2^-r (conditions (1) and (2) of the
// package comment, Config.Rounds), and lie within the honest inputs' range.
// It reads each honest engine's decision for every round it ran, after clean
// runs and runs under each netadv preset, at n = 4, 7 and 16, with no fault
// and with f crashed nodes.
func TestRoundsHalve(t *testing.T) {
	const rounds = 8
	advs := append([]netadv.Adversary{{}}, netadv.Presets()...)
	for _, n := range []int{4, 7, 16} {
		f := (n - 1) / 3
		for _, crashed := range []int{0, f} {
			for _, adv := range advs {
				for seed := int64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("n=%d/crashed=%d/%v/seed=%d", n, crashed, adv, seed)
					t.Run(name, func(t *testing.T) { checkRoundsHalve(t, n, f, crashed, rounds, adv, seed) })
				}
			}
		}
	}
}

// checkRoundsHalve runs one cluster whose first crashed nodes are mute and
// checks every round's honest decisions.
func checkRoundsHalve(t *testing.T, n, f, crashed, rounds int, adv netadv.Adversary, seed int64) {
	cfg := Config{Config: node.Config{N: n, F: f}, Rounds: rounds}
	// Six instances on two levels; node i holds instance k at 1 when
	// (i+k+seed) mod 3 is not 0, so every instance splits the nodes.
	ids := make([]IID, 6)
	for k := range ids {
		ids[k] = IID{Level: uint8(k % 2), K: int32(10 + k)}
	}
	input := func(i, k int) float64 { return float64(min(1, (i+k+int(seed))%3)) }
	procs := make([]node.Process, n)
	engines := make([]*Engine, n)
	for i := crashed; i < n; i++ {
		in := map[IID]float64{}
		for k, id := range ids {
			in[id] = input(i, k)
		}
		p, err := NewProcess(cfg, in)
		if err != nil {
			t.Fatal(err)
		}
		procs[i], engines[i] = p, p.Engine()
	}
	r, err := sim.NewRunner(cfg.Config, sim.AWS(), seed, procs, sim.WithDelayRule(adv.Rule(n, f, seed)))
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	checked := 0
	for k, id := range ids {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := crashed; i < n; i++ {
			lo, hi = min(lo, input(i, k)), max(hi, input(i, k))
		}
		for round := 1; round <= rounds; round++ {
			var dlo, dhi float64
			var at [2]int // the nodes holding dlo and dhi
			count := 0
			for i, e := range engines {
				if e == nil {
					continue
				}
				if !e.done {
					t.Fatalf("node %d did not finish its %d rounds", i, rounds)
				}
				x, ok := e.insts[id]
				if !ok || !e.rs[round-1].insts[x.idx].decided {
					continue
				}
				d := e.rs[round-1].insts[x.idx].decision
				if d < lo || d > hi {
					t.Errorf("%v round %d: node %d decided %g, outside the honest inputs [%g, %g]", id, round, i, d, lo, hi)
				}
				if count == 0 || d < dlo {
					dlo, at[0] = d, i
				}
				if count == 0 || d > dhi {
					dhi, at[1] = d, i
				}
				count++
			}
			if bound := math.Ldexp(1, -round); dhi-dlo > bound {
				t.Errorf("%v round %d: nodes %d and %d decided %g and %g, a span of %g > 2^-%d", id, round, at[0], at[1], dlo, dhi, dhi-dlo, round)
			}
			checked += count
		}
	}
	// Every honest node decides every instance in every round: all of them
	// hold every instance from its input (or its first announcement).
	if want := (n - crashed) * len(ids) * rounds; checked != want {
		t.Errorf("checked %d decisions, want %d", checked, want)
	}
}
