package dist

import (
	"fmt"
	"math"
)

// FitGumbel fits a Gumbel distribution to samples by the method of
// moments: Beta = s·√6/π and Mu = mean − γ·Beta, where s is the sample
// standard deviation and γ is the Euler–Mascheroni constant. Degenerate
// input (fewer than two samples, zero variance) yields a point-mass-like
// fit with Beta = 0.
func FitGumbel(samples []float64) Gumbel {
	mean, variance := Moments(samples)
	beta := math.Sqrt(6*variance) / math.Pi
	return Gumbel{Mu: mean - eulerGamma*beta, Beta: beta}
}

// FitFrechet fits a Fréchet distribution with Loc = 0 to samples by the
// method of moments. The squared coefficient of variation
//
//	CV² = Γ(1−2/α)/Γ²(1−1/α) − 1
//
// decreases monotonically in α on (2, ∞), so α is recovered by bisection
// from the sample CV² and the scale follows from Scale = mean/Γ(1−1/α).
// It errors when the samples are incompatible with a loc-0 Fréchet law:
// non-positive values, fewer than two samples, or zero variance. Sample
// CVs larger than any α > 2 admits clamp to α slightly above 2 (the
// fitted law then has infinite variance, which is the honest reading of
// such fat-tailed data).
func FitFrechet(samples []float64) (Frechet, error) {
	if len(samples) < 2 {
		return Frechet{}, fmt.Errorf("dist: FitFrechet needs >= 2 samples, got %d", len(samples))
	}
	for _, v := range samples {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return Frechet{}, fmt.Errorf("dist: FitFrechet needs positive finite samples, got %g", v)
		}
	}
	mean, variance := Moments(samples)
	if variance <= 0 {
		return Frechet{}, fmt.Errorf("dist: FitFrechet: degenerate samples (zero variance)")
	}
	cv2 := variance / (mean * mean)

	// frechetCV2 is CV²(α), computed through Lgamma for stability.
	frechetCV2 := func(alpha float64) float64 {
		lg2, _ := math.Lgamma(1 - 2/alpha)
		lg1, _ := math.Lgamma(1 - 1/alpha)
		return math.Exp(lg2-2*lg1) - 1
	}

	const (
		alphaLo = 2.000001 // CV² → ∞ as α → 2⁺
		alphaHi = 1e6      // CV² → 0 as α → ∞
	)
	var alpha float64
	switch {
	case cv2 >= frechetCV2(alphaLo):
		alpha = alphaLo
	case cv2 <= frechetCV2(alphaHi):
		alpha = alphaHi
	default:
		// CV² is decreasing in α; negate it to reuse the increasing-CDF
		// inverter.
		alpha = invertCDFMonotone(func(a float64) float64 { return -frechetCV2(a) },
			-cv2, alphaLo, alphaHi)
	}
	scale := mean / gammaFn(1-1/alpha)
	return Frechet{Loc: 0, Scale: scale, Alpha: alpha}, nil
}

// FitGamma fits a Gamma distribution to samples by the method of moments:
// Shape = mean²/variance and Scale = variance/mean. Degenerate input
// (non-positive mean, zero variance, or NaN moments from NaN/Inf
// contamination) yields a near-point-mass fit with a tiny positive scale
// so the result remains a valid distribution.
func FitGamma(samples []float64) Gamma {
	mean, variance := Moments(samples)
	// The negated comparisons route NaN moments (NaN/Inf-contaminated
	// samples) into the fallback too, instead of fabricating a
	// Gamma{NaN, NaN}.
	if !(mean > 0) || !(variance > 0) {
		if !(mean > 0) {
			// Anchor well above the subnormal floor: mean/shape below
			// must stay a positive normal float or the fit degenerates
			// to Scale = 0 (an invalid distribution).
			mean = 1e-300
		}
		// Near-point-mass fallback. Shape stays moderate so the CDF is
		// still numerically trustworthy: the incomplete-gamma series
		// needs ~√Shape terms near the mean, which must fit the
		// iteration budget. Shape 1e4 keeps the sd at 1% of the mean.
		const shape = 1e4
		return Gamma{Shape: shape, Scale: mean / shape}
	}
	return Gamma{Shape: mean * mean / variance, Scale: variance / mean}
}
