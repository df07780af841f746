// Package core implements the Delphi protocol (Algorithm 2 of the paper):
// asynchronous approximate agreement on real-valued oracle inputs with
// ρ-relaxed min-max validity and ε-agreement, via multi-level checkpoint
// weights agreed through the bundled BinAA engine and combined with the
// paper's cross-level differentiated weighted average.
package core

import (
	"fmt"
	"math"
)

// Params are Delphi's system-level protocol parameters (Algorithm 2 inputs).
type Params struct {
	// S and E bound the input space [s, e].
	S float64
	// E is the upper bound of the input space.
	E float64
	// Rho0 is ρ0, the separator (checkpoint spacing) at level 0. The paper
	// recommends ρ0 = ε for minimum validity relaxation.
	Rho0 float64
	// Delta is Δ, the assumed upper bound on the honest input range δ,
	// calibrated from the input distribution (see internal/evt).
	Delta float64
	// Eps is ε, the agreement distance: honest outputs differ by < ε.
	Eps float64
}

// Validate checks parameter sanity. Each check is written so that a NaN
// fails it.
func (p Params) Validate() error {
	if !(p.S < p.E) {
		return fmt.Errorf("core: need s < e, got [%g, %g]", p.S, p.E)
	}
	if !(p.Rho0 > 0) {
		return fmt.Errorf("core: rho0 must be positive, got %g", p.Rho0)
	}
	if !(p.Delta >= p.Rho0) {
		return fmt.Errorf("core: delta (%g) must be >= rho0 (%g)", p.Delta, p.Rho0)
	}
	if !(p.Eps > 0) {
		return fmt.Errorf("core: eps must be positive, got %g", p.Eps)
	}
	if p.Delta > p.E-p.S {
		return fmt.Errorf("core: delta (%g) exceeds input space width (%g)", p.Delta, p.E-p.S)
	}
	return nil
}

// Levels returns l_M, the maximum level index: l_M = ceil(log2(Δ/ρ0)).
// Level separators are ρ_l = 2^l · ρ0, so ρ_{l_M} >= Δ.
func (p Params) Levels() int {
	lm := int(math.Ceil(math.Log2(p.Delta / p.Rho0)))
	if lm < 0 {
		lm = 0
	}
	return lm
}

// Separator returns ρ_l = 2^l ρ0.
func (p Params) Separator(l int) float64 {
	return math.Ldexp(p.Rho0, l)
}

// EpsPrime returns ε' = ε / (4·Δ·l_M·n), the per-checkpoint weight agreement
// distance required for ε-agreement of the final outputs (Algorithm 2 line 2).
func (p Params) EpsPrime(n int) float64 {
	lm := p.Levels()
	if lm < 1 {
		lm = 1
	}
	return p.Eps / (4 * p.Delta * float64(lm) * float64(n))
}

// Rounds returns r_M = ceil(log2(1/ε')), the number of BinAA rounds.
func (p Params) Rounds(n int) int {
	r := int(math.Ceil(math.Log2(1 / p.EpsPrime(n))))
	if r < 1 {
		r = 1
	}
	if r > 60 {
		r = 60 // float64 dyadic precision bound; ε' below 2^-60 is meaningless
	}
	return r
}

// KRange returns the inclusive checkpoint index range [⌈s/ρl⌉, ⌊e/ρl⌋] of
// level l.
func (p Params) KRange(l int) (kmin, kmax int32) {
	rho := p.Separator(l)
	return int32(math.Ceil(p.S / rho)), int32(math.Floor(p.E / rho))
}

// Checkpoint returns µ^l_k = k·ρ_l.
func (p Params) Checkpoint(l int, k int32) float64 {
	return float64(k) * p.Separator(l)
}

// InputCheckpoints returns the checkpoint indices a node with input v sets
// to 1 at level l: the two closest checkpoints bracketing v (Algorithm 2
// line 10), clamped to the level's index range.
func (p Params) InputCheckpoints(l int, v float64) []int32 {
	rho := p.Separator(l)
	k0 := int32(math.Floor(v / rho))
	kmin, kmax := p.KRange(l)
	out := make([]int32, 0, 2)
	for _, k := range []int32{k0, k0 + 1} {
		if k >= kmin && k <= kmax {
			out = append(out, k)
		}
	}
	return out
}
