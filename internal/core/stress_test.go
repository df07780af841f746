package core_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"delphi/internal/binaa"
	"delphi/internal/byz"
	"delphi/internal/core"
	"delphi/internal/node"
	"delphi/internal/sim"
)

// runMixed runs a simulation where procs[i] may be honest Delphi or any
// Byzantine behaviour, then checks agreement/validity over the honest set.
func runMixed(t *testing.T, cfg core.Config, procs []node.Process, honestInputs map[int]float64, seed int64, env sim.Environment, opts ...sim.Option) {
	t.Helper()
	r, err := sim.NewRunner(cfg.Config, env, seed, procs, opts...)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	res := r.Run()

	m, M := math.Inf(1), math.Inf(-1)
	for _, v := range honestInputs {
		m = math.Min(m, v)
		M = math.Max(M, v)
	}
	delta := M - m
	relax := math.Max(cfg.Params.Rho0, delta)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range honestInputs {
		st := res.Stats[i]
		if len(st.Output) == 0 {
			t.Fatalf("seed %d: honest node %d no output (liveness); vtime=%v events=%d",
				seed, i, res.Time, res.Events)
		}
		dr, ok := st.Output[len(st.Output)-1].(core.Result)
		if !ok {
			t.Fatalf("node %d output type %T", i, st.Output[0])
		}
		if dr.Output < m-relax-1e-9 || dr.Output > M+relax+1e-9 {
			t.Errorf("seed %d: node %d output %g outside [%g, %g] (validity)",
				seed, i, dr.Output, m-relax, M+relax)
		}
		lo = math.Min(lo, dr.Output)
		hi = math.Max(hi, dr.Output)
	}
	if hi-lo >= cfg.Params.Eps {
		t.Errorf("seed %d: spread %g >= eps %g (agreement)", seed, hi-lo, cfg.Params.Eps)
	}
}

// TestDelphiRandomSchedules fuzzes Delphi across random latencies, inputs,
// and fault placements.
func TestDelphiRandomSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	p := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed * 7919))
		n := 4 + rng.Intn(10) // 4..13
		f := (n - 1) / 3
		cfg := mkConfig(n, f, p)
		center := 40000 + rng.Float64()*1000
		delta := rng.Float64() * 200 // up to fairly spread inputs
		procs := make([]node.Process, n)
		honest := make(map[int]float64, n)
		crashes := rng.Intn(f + 1)
		for i := 0; i < n; i++ {
			if i < crashes {
				continue // crashed: a nil process
			}
			v := center + (rng.Float64()-0.5)*delta
			d, err := core.New(cfg, v)
			if err != nil {
				t.Fatal(err)
			}
			procs[i] = d
			honest[i] = v
		}
		runMixed(t, cfg, procs, honest, seed, sim.AWS())
	}
}

// TestDelphiEquivocator places an equivocating Byzantine node that claims
// different inputs to different halves of the network.
func TestDelphiEquivocator(t *testing.T) {
	p := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2}
	for seed := int64(0); seed < 6; seed++ {
		n, f := 7, 2
		cfg := mkConfig(n, f, p)
		procs := make([]node.Process, n)
		honest := make(map[int]float64, n)
		// Byzantine node 0 claims checkpoints far from the honest cluster.
		procs[0] = &byz.Equivocator{
			CheckA: binaa.IID{Level: 0, K: 10000},
			CheckB: binaa.IID{Level: 0, K: 30000},
		}
		// Byzantine node 1 forges conflicting ECHO2s near the honest band.
		procs[1] = &byz.Echo2Forger{Target: binaa.IID{Level: 0, K: 25000}, Rounds: 8}
		rng := rand.New(rand.NewSource(seed))
		for i := 2; i < n; i++ {
			v := 50000 + rng.Float64()*40
			d, err := core.New(cfg, v)
			if err != nil {
				t.Fatal(err)
			}
			procs[i] = d
			honest[i] = v
		}
		runMixed(t, cfg, procs, honest, seed, sim.AWS())
	}
}

// TestDelphiSpammer checks robustness to junk-checkpoint floods.
func TestDelphiSpammer(t *testing.T) {
	p := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2}
	n, f := 7, 2
	cfg := mkConfig(n, f, p)
	procs := make([]node.Process, n)
	honest := make(map[int]float64, n)
	procs[0] = &byz.Spammer{
		Rng:      rand.New(rand.NewSource(99)),
		Levels:   p.Levels(),
		KMin:     20000,
		KMax:     30000,
		PerRound: 5,
	}
	rng := rand.New(rand.NewSource(123))
	for i := 1; i < n; i++ {
		v := 50000 + rng.Float64()*100
		d, err := core.New(cfg, v)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = d
		honest[i] = v
	}
	runMixed(t, cfg, procs, honest, 7, sim.CPS())
}

// TestDelphiTargetedDelays uses an adversarial scheduler that massively
// delays all traffic from a third of the honest nodes, exercising the
// late-activation path.
func TestDelphiTargetedDelays(t *testing.T) {
	p := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2}
	n, f := 10, 3
	cfg := mkConfig(n, f, p)
	procs := make([]node.Process, n)
	honest := make(map[int]float64, n)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		v := 50000 + rng.Float64()*120
		d, err := core.New(cfg, v)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = d
		honest[i] = v
	}
	slow := func(_ time.Duration, from, to node.ID, _ node.Message) time.Duration {
		if from < 3 { // first three nodes' messages crawl
			return 300 * time.Millisecond
		}
		return 0
	}
	runMixed(t, cfg, procs, honest, 11, sim.Local(), sim.WithDelayRule(slow))
}
