package core_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"delphi/internal/binaa"
	"delphi/internal/core"
	"delphi/internal/node"
)

// buildWeights constructs a plausible BinAA weight assignment for honest
// inputs clustered around center with range delta: for each level, the two
// checkpoints bracketing each input get weight near 1, with a guaranteed
// full-weight checkpoint at levels whose separator exceeds delta — the
// structural precondition of Theorems IV.1–IV.4.
func buildWeights(p core.Params, center, delta float64, rng *rand.Rand) map[binaa.IID]float64 {
	w := map[binaa.IID]float64{}
	for l := 0; l <= p.Levels(); l++ {
		rho := p.Separator(l)
		for _, v := range []float64{center - delta/2, center + delta/2, center} {
			for _, k := range p.InputCheckpoints(l, v) {
				id := binaa.IID{Level: uint8(l), K: k}
				if rho >= delta {
					w[id] = 1
				} else if _, ok := w[id]; !ok {
					w[id] = rng.Float64()
				}
			}
		}
	}
	return w
}

// perturb returns a copy of w with every weight moved by at most epsPrime,
// clamped to [0, 1] — modelling the ε'-agreement BinAA guarantees.
func perturb(w map[binaa.IID]float64, epsPrime float64, rng *rand.Rand) map[binaa.IID]float64 {
	out := make(map[binaa.IID]float64, len(w))
	for id, v := range w {
		nv := v + (rng.Float64()*2-1)*epsPrime
		if nv < 0 {
			nv = 0
		}
		if nv > 1 {
			nv = 1
		}
		out[id] = nv
	}
	return out
}

// TestAggregatePerturbationProperty is Theorem IV.4 in executable form:
// when two nodes' weights agree within ε' per checkpoint, their aggregated
// outputs agree within ε.
func TestAggregatePerturbationProperty(t *testing.T) {
	cfg := mkConfig(16, 5, core.Params{S: 0, E: 100000, Rho0: 2, Delta: 512, Eps: 2})
	p := cfg.Params
	epsPrime := p.EpsPrime(cfg.N)
	f := func(seed int64, centerRaw, deltaRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		center := 1000 + float64(centerRaw%60000)
		delta := float64(deltaRaw%400) + 1 // δ ∈ [1, 401), ≤ Δ=512
		base := buildWeights(p, center, delta, rng)
		r1 := core.Aggregate(cfg, center, base)
		r2 := core.Aggregate(cfg, center+delta/4, perturb(base, epsPrime, rng))
		return math.Abs(r1.Output-r2.Output) < p.Eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAggregateValidityProperty is Theorem IV.3 in executable form: the
// output stays within [m−max(ρ0,δ), M+max(ρ0,δ)] when weights follow the
// honest structure.
func TestAggregateValidityProperty(t *testing.T) {
	cfg := mkConfig(16, 5, core.Params{S: 0, E: 100000, Rho0: 2, Delta: 512, Eps: 2})
	p := cfg.Params
	f := func(seed int64, centerRaw, deltaRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		center := 1000 + float64(centerRaw%60000)
		delta := float64(deltaRaw%400) + 1
		w := buildWeights(p, center, delta, rng)
		r := core.Aggregate(cfg, center, w)
		m, M := center-delta/2, center+delta/2
		relax := math.Max(p.Rho0, delta) + p.Separator(int(math.Ceil(math.Log2(delta/p.Rho0))))
		return r.Output >= m-relax-1e-9 && r.Output <= M+relax+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAggregateTermination is Theorem IV.1: with at least one full-weight
// level, the weighted-average denominator stays >= 1/2 and the output is
// finite.
func TestAggregateTermination(t *testing.T) {
	cfg := mkConfig(16, 5, core.Params{S: 0, E: 100000, Rho0: 2, Delta: 512, Eps: 2})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		center := 1000 + rng.Float64()*60000
		w := buildWeights(cfg.Params, center, 50, rng)
		r := core.Aggregate(cfg, center, w)
		return !math.IsNaN(r.Output) && !math.IsInf(r.Output, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAggregateIgnoresJunkLevels checks that checkpoints above l_M
// (Byzantine-invented levels) cannot influence the output.
func TestAggregateIgnoresJunkLevels(t *testing.T) {
	cfg := mkConfig(4, 1, core.Params{S: 0, E: 1000, Rho0: 2, Delta: 16, Eps: 2})
	w := map[binaa.IID]float64{
		{Level: 0, K: 250}: 1,
		{Level: 1, K: 125}: 1,
		{Level: 2, K: 62}:  1,
		{Level: 3, K: 31}:  1,
	}
	clean := core.Aggregate(cfg, 500, w)
	w[binaa.IID{Level: 200, K: 1}] = 1 // far beyond l_M = 3
	dirty := core.Aggregate(cfg, 500, w)
	if clean.Output != dirty.Output {
		t.Errorf("junk level changed output: %g vs %g", clean.Output, dirty.Output)
	}
}

// TestAggregateEmptyWeights exercises the all-fallback path: every level
// takes (v_i, ε') and the output collapses to the node's own input.
func TestAggregateEmptyWeights(t *testing.T) {
	cfg := mkConfig(4, 1, core.Params{S: 0, E: 1000, Rho0: 2, Delta: 16, Eps: 2})
	r := core.Aggregate(cfg, 123.5, map[binaa.IID]float64{})
	if r.Output != 123.5 {
		t.Errorf("output = %g, want own input 123.5", r.Output)
	}
	for _, lv := range r.Levels {
		if lv.ActiveCheckpoints != 0 {
			t.Errorf("level %d unexpectedly active", lv.Level)
		}
	}
}

func TestSeparatorDoubling(t *testing.T) {
	p := core.Params{S: 0, E: 1000, Rho0: 3, Delta: 48, Eps: 1}
	for l := 0; l < p.Levels(); l++ {
		if p.Separator(l+1) != 2*p.Separator(l) {
			t.Errorf("separator at level %d does not double", l)
		}
	}
	if p.Separator(p.Levels()) < p.Delta {
		t.Errorf("top separator %g below Delta %g", p.Separator(p.Levels()), p.Delta)
	}
}

func TestConfigRejectsOutOfRangeInput(t *testing.T) {
	good := core.Params{S: 10, E: 20, Rho0: 1, Delta: 5, Eps: 1}
	nan := math.NaN()
	for _, tc := range []struct {
		name  string
		edit  func(*core.Params)
		input float64
	}{
		{"input above E", func(*core.Params) {}, 25},
		{"input below S", func(*core.Params) {}, 5},
		{"NaN input", func(*core.Params) {}, nan},
		{"NaN rho0", func(p *core.Params) { p.Rho0 = nan }, 15},
		{"NaN delta", func(p *core.Params) { p.Delta = nan }, 15},
		{"NaN eps", func(p *core.Params) { p.Eps = nan }, 15},
	} {
		p := good
		tc.edit(&p)
		if _, err := core.New(mkConfig(4, 1, p), tc.input); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if _, err := core.New(mkConfig(4, 1, good), 15); err != nil {
		t.Errorf("in-range input rejected: %v", err)
	}
	var nilCfg core.Config
	nilCfg.Config = node.Config{N: 4, F: 1}
	if _, err := core.New(nilCfg, 1); err == nil {
		t.Error("zero params accepted")
	}
}

// TestAggregateOrderIndependent is the map-iteration determinism regression
// for the aggregation phase: Aggregate sums weighted checkpoint values that
// arrive as a map, and float addition is order-sensitive in the low bits.
// The weights map is rebuilt with a shuffled insertion order on every
// attempt (Go additionally randomises iteration per map), and every attempt
// must produce a bit-identical output.
func TestAggregateOrderIndependent(t *testing.T) {
	p := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 2000, Eps: 2}
	cfg := core.Config{Config: node.Config{N: 16, F: 5}, Params: p}
	rng := rand.New(rand.NewSource(4))
	base := buildWeights(p, 41000, 20, rng)
	// Densify level 0 with many non-dyadic weights: sparse levels with two
	// or three dyadic checkpoints can sum exactly in every order and mask
	// an order dependence; a Byzantine spammer produces exactly this kind
	// of wide junk-checkpoint spread.
	for k := int32(20400); k < 20600; k++ {
		base[binaa.IID{Level: 0, K: k}] = 0.1 + 0.8*rng.Float64()
	}
	type kv struct {
		id binaa.IID
		w  float64
	}
	flat := make([]kv, 0, len(base))
	for id, w := range base {
		flat = append(flat, kv{id, w})
	}
	var want float64
	for attempt := 0; attempt < 200; attempt++ {
		rng.Shuffle(len(flat), func(i, j int) { flat[i], flat[j] = flat[j], flat[i] })
		m := make(map[binaa.IID]float64, len(flat))
		for _, e := range flat {
			m[e.id] = e.w
		}
		got := core.Aggregate(cfg, 41000, m).Output
		if attempt == 0 {
			want = got
		} else if got != want {
			t.Fatalf("attempt %d: output %.17g != first attempt %.17g — summation is map-order dependent",
				attempt, got, want)
		}
	}
}
