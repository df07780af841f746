package evt

import (
	"math"

	"delphi/internal/dist"
)

// The paper's closed-form bounds on Δ, which Calibrate's empirical fits
// stand in for; TestClosedForms checks how they scale.

// ThinTailDelta is the paper's closed-form thin-tail bound Δ = O(λ·log n)
// scaled by the base distribution's dispersion: it evaluates the Gumbel
// quantile of the range of n standard-normal-like samples with scale sigma.
func ThinTailDelta(sigma float64, n, lambda int) float64 {
	// Asymptotics of the normal-sample range: location ~ 2σ√(2 ln n),
	// scale ~ σ/√(2 ln n).
	ln := math.Log(float64(n))
	if ln < 1 {
		ln = 1
	}
	mu := 2 * sigma * math.Sqrt(2*ln)
	beta := sigma / math.Sqrt(2*ln)
	return GumbelQuantileUpper(dist.Gumbel{Mu: mu, Beta: beta}, math.Pow(2, -float64(lambda)))
}

// FatTailDelta is the paper's closed-form fat-tail bound for tail index α:
// Δ = O(2^{λ/α} · n^{1/α}) scaled by the base scale.
func FatTailDelta(scale, alpha float64, n, lambda int) float64 {
	return scale * math.Pow(float64(n), 1/alpha) * math.Pow(2, float64(lambda)/alpha)
}
