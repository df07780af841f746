package binaa_test

import (
	"math"
	"testing"

	"delphi/internal/binaa"
	"delphi/internal/node"
	"delphi/internal/sim"
)

// runBinAA runs n-f honest BinAA processes (faulty ones mute) and returns
// per-node weight maps.
func runBinAA(t *testing.T, n, f, rounds int, inputs []map[binaa.IID]float64, seed int64, env sim.Environment) []map[binaa.IID]float64 {
	t.Helper()
	cfg := binaa.Config{Config: node.Config{N: n, F: f}, Rounds: rounds}
	procs := make([]node.Process, n)
	for i := range procs {
		if inputs[i] == nil {
			continue // crashed node
		}
		p, err := binaa.NewProcess(cfg, inputs[i])
		if err != nil {
			t.Fatalf("NewProcess: %v", err)
		}
		procs[i] = p
	}
	r, err := sim.NewRunner(node.Config{N: n, F: f}, env, seed, procs)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	res := r.Run()
	out := make([]map[binaa.IID]float64, n)
	for i := range procs {
		if procs[i] == nil {
			continue
		}
		st := res.Stats[i]
		if len(st.Output) == 0 {
			t.Fatalf("node %d produced no output (liveness failure), events=%d vtime=%v", i, res.Events, res.Time)
		}
		w, ok := st.Output[len(st.Output)-1].(map[binaa.IID]float64)
		if !ok {
			t.Fatalf("node %d output has wrong type %T", i, st.Output[0])
		}
		out[i] = w
	}
	return out
}

func TestUnanimousOne(t *testing.T) {
	n, f := 4, 1
	x := binaa.IID{Level: 0, K: 7}
	inputs := make([]map[binaa.IID]float64, n)
	for i := range inputs {
		inputs[i] = map[binaa.IID]float64{x: 1}
	}
	outs := runBinAA(t, n, f, 5, inputs, 1, sim.Local())
	for i, w := range outs {
		if w[x] != 1 {
			t.Errorf("node %d: weight = %g, want 1 (validity)", i, w[x])
		}
	}
}

// settledCluster runs a clean n=7 cluster for 6 rounds: every node holds the
// settled instances at 1, and the split instance at its index mod 2. It
// returns the engines, each checked to have decided.
func settledCluster(t *testing.T) (cfg binaa.Config, settled []binaa.IID, split binaa.IID, engines []*binaa.Engine) {
	t.Helper()
	cfg = binaa.Config{Config: node.Config{N: 7, F: 2}, Rounds: 6}
	settled = []binaa.IID{{K: 1}, {K: 2}, {Level: 1, K: 3}}
	split = binaa.IID{K: 9}
	procs := make([]node.Process, cfg.N)
	engines = make([]*binaa.Engine, cfg.N)
	for i := range procs {
		in := map[binaa.IID]float64{split: float64(i % 2)}
		for _, id := range settled {
			in[id] = 1
		}
		p, err := binaa.NewProcess(cfg, in)
		if err != nil {
			t.Fatal(err)
		}
		procs[i], engines[i] = p, p.Engine()
	}
	r, err := sim.NewRunner(cfg.Config, sim.AWS(), 3, procs)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	for i := range engines {
		if len(res.Stats[i].Output) == 0 {
			t.Fatalf("node %d produced no output", i)
		}
	}
	return cfg, settled, split, engines
}

// TestSettledInstancesStayImplicit pins the implicit-tally path on a clean
// cluster: an instance every node holds at 1 meets only bundle votes and
// bitmap votes for 1, so no node materialises its tally in any round. An
// instance the nodes split on does materialise, which shows the probe reads
// real tallies.
func TestSettledInstancesStayImplicit(t *testing.T) {
	cfg, settled, split, engines := settledCluster(t)
	for i, e := range engines {
		for round := 1; round <= cfg.Rounds; round++ {
			for _, id := range settled {
				if !e.Implicit(round, id) {
					t.Errorf("node %d: settled %v's round-%d tally materialised", i, id, round)
				}
			}
		}
		if e.Implicit(1, split) {
			t.Errorf("node %d: split %v's round-1 tally is implicit", i, split)
		}
	}
}

// TestSettledRoundsAreQuiet pins the quiet-round path on the same cluster:
// the split instance moves every bundle of round 2, and once it has settled
// every round from 3 on is quiet at every node, with every sender whose
// bundle arrived clean. Round 1 (full bundles) is never quiet.
func TestSettledRoundsAreQuiet(t *testing.T) {
	cfg, _, _, engines := settledCluster(t)
	for i, e := range engines {
		if e.Quiet(1) || e.Quiet(2) {
			t.Errorf("node %d: round 1 quiet=%v, round 2 quiet=%v; want neither", i, e.Quiet(1), e.Quiet(2))
		}
		for round := 3; round <= cfg.Rounds; round++ {
			if !e.Quiet(round) {
				t.Errorf("node %d: round %d is not quiet", i, round)
			}
			arrived := 0
			for from := node.ID(0); int(from) < cfg.N; from++ {
				seen, clean := e.Clean(round, from)
				if seen && !clean {
					t.Errorf("node %d: sender %d's round-%d bundle is not clean", i, from, round)
				}
				if seen {
					arrived++
				}
			}
			if arrived < cfg.Quorum() {
				t.Errorf("node %d: %d round-%d bundles arrived, fewer than n-t", i, arrived, round)
			}
		}
	}
}

func TestUnanimousZero(t *testing.T) {
	n, f := 4, 1
	inputs := make([]map[binaa.IID]float64, n)
	for i := range inputs {
		inputs[i] = map[binaa.IID]float64{} // all-zero inputs
	}
	outs := runBinAA(t, n, f, 4, inputs, 2, sim.Local())
	for i, w := range outs {
		if len(w) != 0 {
			t.Errorf("node %d: weights = %v, want empty", i, w)
		}
	}
}

func TestSplitInputsAgreeWithinEps(t *testing.T) {
	n, f := 7, 2
	x := binaa.IID{K: 3}
	rounds := 10
	inputs := make([]map[binaa.IID]float64, n)
	for i := range inputs {
		if i%2 == 0 {
			inputs[i] = map[binaa.IID]float64{x: 1}
		} else {
			inputs[i] = map[binaa.IID]float64{} // input 0
		}
	}
	outs := runBinAA(t, n, f, rounds, inputs, 3, sim.Local())
	eps := math.Pow(2, -float64(rounds))
	lo, hi := 2.0, -1.0
	for _, w := range outs {
		v := w[x]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		if v < 0 || v > 1 {
			t.Errorf("weight %g outside [0,1] (validity)", v)
		}
	}
	if hi-lo > eps {
		t.Errorf("weight spread %g > eps %g (agreement)", hi-lo, eps)
	}
}

func TestCrashFaults(t *testing.T) {
	n, f := 7, 2
	x := binaa.IID{K: 1}
	inputs := make([]map[binaa.IID]float64, n)
	for i := 0; i < n; i++ {
		inputs[i] = map[binaa.IID]float64{x: 1}
	}
	// Crash f nodes (nil process).
	inputs[0] = nil
	inputs[4] = nil
	outs := runBinAA(t, n, f, 6, inputs, 4, sim.Local())
	for i, w := range outs {
		if w == nil {
			continue
		}
		if w[x] != 1 {
			t.Errorf("node %d: weight = %g, want 1 despite crashes", i, w[x])
		}
	}
}

func TestManyInstancesAcrossLevels(t *testing.T) {
	n, f := 4, 1
	rounds := 8
	mk := func(l uint8, k int32) binaa.IID { return binaa.IID{Level: l, K: k} }
	inputs := make([]map[binaa.IID]float64, n)
	for i := range inputs {
		inputs[i] = map[binaa.IID]float64{
			mk(0, int32(10+i)): 1, // staggered: neighbours differ
			mk(1, 5):           1, // unanimous at level 1
			mk(2, 2):           1,
		}
	}
	outs := runBinAA(t, n, f, rounds, inputs, 5, sim.Local())
	eps := math.Pow(2, -float64(rounds))
	// Unanimous instances must end at exactly 1.
	for i, w := range outs {
		if w[mk(1, 5)] != 1 {
			t.Errorf("node %d: level1 weight = %g, want 1", i, w[mk(1, 5)])
		}
		if w[mk(2, 2)] != 1 {
			t.Errorf("node %d: level2 weight = %g, want 1", i, w[mk(2, 2)])
		}
	}
	// Staggered instances: agreement within eps across nodes, per instance.
	for k := int32(10); k < int32(10+n); k++ {
		lo, hi := 2.0, -1.0
		for _, w := range outs {
			v := w[mk(0, k)]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo > eps {
			t.Errorf("instance K=%d spread %g > %g", k, hi-lo, eps)
		}
	}
}

func TestAWSEnvironmentRun(t *testing.T) {
	n, f := 16, 5
	x := binaa.IID{K: 0}
	inputs := make([]map[binaa.IID]float64, n)
	for i := range inputs {
		if i < 8 {
			inputs[i] = map[binaa.IID]float64{x: 1}
		} else {
			inputs[i] = map[binaa.IID]float64{}
		}
	}
	outs := runBinAA(t, n, f, 8, inputs, 6, sim.AWS())
	eps := math.Pow(2, -8)
	lo, hi := 2.0, -1.0
	for _, w := range outs {
		v := w[x]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo > eps {
		t.Errorf("spread %g > %g under WAN latencies", hi-lo, eps)
	}
}
