package aba_test

import (
	"testing"

	"delphi/internal/aba"
	"delphi/internal/coin"
	"delphi/internal/node"
	"delphi/internal/sim"
)

// harness wires an ABA engine + coin source as a process running several
// instances.
type harness struct {
	cfg     node.Config
	inputs  map[uint32]bool
	eng     *aba.Engine
	coins   *coin.Source
	decided map[uint32]bool
	env     node.Env
}

func newHarness(cfg node.Config, inputs map[uint32]bool) *harness {
	return &harness{cfg: cfg, inputs: inputs, decided: make(map[uint32]bool)}
}

func (h *harness) Init(env node.Env) {
	h.env = env
	h.coins = coin.NewSource(h.cfg, env, 0xc0ffee, aba.CoinID(1), aba.MaxRounds, func(id, v uint64) { h.eng.OnCoin(id, v) })
	h.eng = aba.NewEngine(h.cfg, env, h.coins, func(inst uint32, v bool) {
		h.decided[inst] = v
		if len(h.decided) == len(h.inputs) {
			env.Output(h.decided)
			env.Halt()
		}
	})
	for inst, v := range h.inputs {
		h.eng.Input(inst, v)
	}
}

func (h *harness) Deliver(from node.ID, m node.Message) {
	if h.eng.Handle(from, m) {
		return
	}
	h.coins.Handle(from, m)
}

func runABA(t *testing.T, n, f int, inputs []map[uint32]bool, seed int64) []map[uint32]bool {
	t.Helper()
	cfg := node.Config{N: n, F: f}
	procs := make([]node.Process, n)
	hs := make([]*harness, n)
	for i := range procs {
		if inputs[i] == nil {
			continue
		}
		hs[i] = newHarness(cfg, inputs[i])
		procs[i] = hs[i]
	}
	r, err := sim.NewRunner(cfg, sim.AWS(), seed, procs)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	out := make([]map[uint32]bool, n)
	for i, h := range hs {
		if h == nil {
			continue
		}
		if len(res.Stats[i].Output) == 0 {
			t.Fatalf("node %d: no ABA output (liveness); vtime=%v", i, res.Time)
		}
		out[i] = h.decided
	}
	return out
}

func TestABAUnanimousValidity(t *testing.T) {
	n, f := 4, 1
	inputs := make([]map[uint32]bool, n)
	for i := range inputs {
		inputs[i] = map[uint32]bool{1: true, 2: false}
	}
	outs := runABA(t, n, f, inputs, 1)
	for i, d := range outs {
		if !d[1] {
			t.Errorf("node %d: instance 1 decided false despite unanimous true", i)
		}
		if d[2] {
			t.Errorf("node %d: instance 2 decided true despite unanimous false", i)
		}
	}
}

func TestABAMixedAgreement(t *testing.T) {
	n, f := 7, 2
	for seed := int64(0); seed < 5; seed++ {
		inputs := make([]map[uint32]bool, n)
		for i := range inputs {
			inputs[i] = map[uint32]bool{6: i%2 == 0}
		}
		outs := runABA(t, n, f, inputs, seed)
		first := outs[0][6]
		for i, d := range outs {
			if d[6] != first {
				t.Errorf("seed %d: node %d decided %v, node 0 decided %v", seed, i, d[6], first)
			}
		}
	}
}

func TestABAWithCrashes(t *testing.T) {
	n, f := 7, 2
	inputs := make([]map[uint32]bool, n)
	for i := 0; i < n; i++ {
		if i < f {
			continue // crashed
		}
		inputs[i] = map[uint32]bool{5: true}
	}
	outs := runABA(t, n, f, inputs, 3)
	for i := f; i < n; i++ {
		if !outs[i][5] {
			t.Errorf("node %d decided false despite unanimous honest true", i)
		}
	}
}

func TestCoinCommonValue(t *testing.T) {
	cfg := node.Config{N: 4, F: 1}
	var sources []*coin.Source
	for i := 0; i < 4; i++ {
		s := coin.NewSource(cfg, nil, 99, 0, 32, func(uint64, uint64) {})
		sources = append(sources, s)
	}
	for c := uint64(0); c < 32; c++ {
		v := sources[0].Value(c)
		for i, s := range sources {
			if s.Value(c) != v {
				t.Fatalf("source %d disagrees on coin %d", i, c)
			}
		}
	}
	// Coins must not be constant.
	same := true
	for c := uint64(1); c < 32; c++ {
		if sources[0].Value(c)&1 != sources[0].Value(0)&1 {
			same = false
			break
		}
	}
	if same {
		t.Error("32 consecutive coins identical")
	}
}
