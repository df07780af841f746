package bench_test

import (
	"reflect"
	"strings"
	"testing"

	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/netadv"
	"delphi/internal/sim"
)

// advSpecs builds one RunSpec per (netadv preset, protocol): every preset
// crossed with Delphi and the coin-driven FIN baseline (the coin-rush
// target), at two seeds for the jitter presets' seed-dependence.
func advSpecs() []bench.RunSpec {
	n, f := 8, 2
	p := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2}
	var specs []bench.RunSpec
	for _, adv := range netadv.Presets() {
		for _, proto := range []bench.Protocol{bench.ProtoDelphi, bench.ProtoFIN} {
			for seed := int64(1); seed <= 2; seed++ {
				specs = append(specs, bench.RunSpec{
					Protocol: proto, N: n, F: f, Env: sim.AWS(), Seed: seed,
					Inputs: bench.OracleInputs(n, 41000, 20, seed), Delphi: p,
					Adversary: adv,
				})
			}
		}
	}
	return specs
}

// TestAdversaryRunsMatchSequential is the satellite determinism regression
// for the adversary axis: for every netadv preset and protocol, the
// engine's parallel results at 1/4/16 workers must equal sequential
// bench.Run exactly — the adversarial schedule is part of the trial's pure
// function, so worker count must not leak into it.
func TestAdversaryRunsMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test")
	}
	specs := advSpecs()
	want := make([]*bench.RunStats, len(specs))
	for i, spec := range specs {
		st, err := bench.Run(spec)
		if err != nil {
			t.Fatalf("sequential %s/%s seed=%d: %v", spec.Protocol, spec.Adversary, spec.Seed, err)
		}
		want[i] = st
	}
	for _, workers := range []int{1, 4, 16} {
		got, err := bench.NewEngine(workers).RunBatch(specs)
		if err != nil {
			t.Fatalf("engine workers=%d: %v", workers, err)
		}
		for i := range specs {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("workers=%d %s/%s seed=%d: parallel result diverges",
					workers, specs[i].Protocol, specs[i].Adversary, specs[i].Seed)
			}
		}
	}
}

// TestAdversaryRunsRerunDeterministic re-executes every (preset, protocol)
// spec: an adversarial run must be a pure function of its spec.
func TestAdversaryRunsRerunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test")
	}
	for _, spec := range advSpecs() {
		a, err := bench.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := bench.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s/%s seed=%d: rerun diverges", spec.Protocol, spec.Adversary, spec.Seed)
		}
	}
}

// TestAdversarySlowsButPreservesAgreement pins the semantics: under every
// preset the run completes, honest spread keeps the ε guarantee (delays
// cannot break safety), and the targeted presets actually cost latency
// against the clean run.
func TestAdversarySlowsButPreservesAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test")
	}
	n, f := 8, 2
	p := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2}
	base := bench.RunSpec{
		Protocol: bench.ProtoDelphi, N: n, F: f, Env: sim.AWS(), Seed: 5,
		Inputs: bench.OracleInputs(n, 41000, 20, 5), Delphi: p,
	}
	clean, err := bench.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, adv := range netadv.Presets() {
		spec := base
		spec.Adversary = adv
		st, err := bench.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", adv, err)
		}
		if st.Spread >= p.Eps {
			t.Errorf("%s: honest spread %g >= eps %g — delay broke safety", adv, st.Spread, p.Eps)
		}
		// coin-rush is a deliberate no-op for coin-free Delphi; every other
		// preset must visibly slow the run.
		if adv.Kind != netadv.CoinRush && st.Latency <= clean.Latency {
			t.Errorf("%s: latency %v not above clean %v", adv, st.Latency, clean.Latency)
		}
	}
	// coin-rush must bite the coin-driven baseline instead.
	fin := base
	fin.Protocol = bench.ProtoFIN
	finClean, err := bench.Run(fin)
	if err != nil {
		t.Fatal(err)
	}
	fin.Adversary = netadv.Adversary{Kind: netadv.CoinRush}
	finRushed, err := bench.Run(fin)
	if err != nil {
		t.Fatal(err)
	}
	if finRushed.Latency <= finClean.Latency {
		t.Errorf("coin-rush: FIN latency %v not above clean %v", finRushed.Latency, finClean.Latency)
	}
}

// TestMatrixAdversaryAxis pins how a matrix carries an adversary: the base
// scenario's adversary reaches every cell and its /adv= name, and matrix
// validation rejects an unknown kind.
func TestMatrixAdversaryAxis(t *testing.T) {
	m := bench.Matrix{
		Base: bench.Scenario{
			Protocol: bench.ProtoDelphi, Env: sim.AWS(),
			Params: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2},
			Center: 41000, Delta: 20, Adversary: netadv.Adversary{Kind: netadv.SlowF},
		},
		Ns: []int{8, 16},
	}
	cells := m.Scenarios()
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	for _, c := range cells {
		if c.Adversary.Kind != netadv.SlowF || !strings.HasSuffix(c.Name, "/adv=slow-f") {
			t.Errorf("cell %q lost the base adversary (%v)", c.Name, c.Adversary)
		}
	}
	bad := m
	bad.Base.Adversary = netadv.Adversary{Kind: "warp"}
	if _, err := bench.NewEngine(1).RunMatrix(bad, 3); err == nil {
		t.Error("unknown adversary kind accepted by matrix validation")
	}
}
