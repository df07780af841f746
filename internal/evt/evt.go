// Package evt implements the paper's extreme-value-theory calibration of
// Delphi's Δ parameter (§IV-D): given the distribution of a node's
// measurement noise, pick Δ so that the range δ of n honest samples exceeds
// Δ only with probability 2^−λ.
//
// For thin-tailed inputs (Normal, Gamma, Lognormal) the range of n samples
// converges to a Gumbel law whose mean grows as O(log n), yielding
// Δ = O(λ log n); for fat-tailed inputs (Pareto, Loggamma) the range
// converges to a Fréchet law with mean O(n^{1/α}) and Δ = O(2^{λ/α}·n^{1/α}).
// Calibrate follows the paper's empirical procedure: collect range samples,
// fit both extreme-value families, keep the better fit, and read Δ off the
// fitted quantile.
package evt

import (
	"fmt"
	"math"
	"math/rand"

	"delphi/internal/dist"
)

// Calibration is the result of estimating Δ.
type Calibration struct {
	// Delta is the calibrated Δ: P(range > Delta) <= 2^-Lambda under Fit.
	Delta float64
	// MeanRange is the observed mean range of n samples.
	MeanRange float64
	// Fit is the extreme-value distribution fitted to the range samples
	// (Gumbel or Fréchet, whichever scored the lower KS statistic).
	Fit dist.Distribution
	// KSGumbel and KSFrechet are the goodness-of-fit statistics of the two
	// candidate families.
	KSGumbel  float64
	KSFrechet float64
	// ThinTailed reports whether the Gumbel family won.
	ThinTailed bool
	// Lambda is the statistical security parameter used.
	Lambda int
	// N is the cohort size used.
	N int
}

// GumbelQuantileUpper returns the value exceeded with probability q under a
// Gumbel law: the (1−q)-quantile, computed stably for tiny q (q = 2^-λ is
// far below one ulp of 1.0, so the naive form through p = 1−q underflows).
func GumbelQuantileUpper(g dist.Gumbel, q float64) float64 {
	return g.Mu - g.Beta*math.Log(-math.Log1p(-q))
}

// FrechetQuantileUpper returns the value exceeded with probability q under
// a Fréchet law, computed stably for tiny q.
func FrechetQuantileUpper(f dist.Frechet, q float64) float64 {
	return f.Loc + f.Scale*math.Pow(-math.Log1p(-q), -1/f.Alpha)
}

// RangeSamples draws trials ranges, each the max-min of n iid draws from
// base.
func RangeSamples(base dist.Distribution, n, trials int, rng *rand.Rand) []float64 {
	out := make([]float64, trials)
	for t := 0; t < trials; t++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			v := base.Sample(rng)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		out[t] = hi - lo
	}
	return out
}

// Calibrate estimates Δ for a system of n nodes whose inputs carry noise
// distributed as base, at statistical security λ bits. The Fréchet
// candidate is fitted by the method of moments with its location pinned to
// 0, and the family with the lower KS statistic wins.
func Calibrate(base dist.Distribution, n, lambda, trials int, rng *rand.Rand) (Calibration, error) {
	if n < 2 {
		return Calibration{}, fmt.Errorf("evt: need n >= 2, got %d", n)
	}
	if lambda < 1 || lambda > 120 {
		return Calibration{}, fmt.Errorf("evt: lambda out of range: %d", lambda)
	}
	if trials < 100 {
		return Calibration{}, fmt.Errorf("evt: need >= 100 trials, got %d", trials)
	}
	ranges := RangeSamples(base, n, trials, rng)
	mean, variance := dist.Moments(ranges)
	if !(variance > 0) {
		// A constant range (e.g. a zero-variance noise model) admits no
		// extreme-value fit; both families would degenerate and the
		// quantile readout would be NaN.
		return Calibration{}, fmt.Errorf("evt: degenerate range samples (zero spread, mean %g); no extreme-value law fits", mean)
	}

	gum := dist.FitGumbel(ranges)
	ksG := dist.KS(ranges, gum)

	cal := Calibration{MeanRange: mean, Lambda: lambda, N: n, KSGumbel: ksG}
	q := math.Pow(2, -float64(lambda))

	fre, errF := dist.FitFrechet(ranges)
	ksF := math.Inf(1)
	if errF == nil {
		ksF = dist.KS(ranges, fre)
	}
	cal.KSFrechet = ksF

	if ksF >= ksG {
		cal.ThinTailed = true
		cal.Fit = gum
		cal.Delta = GumbelQuantileUpper(gum, q)
	} else {
		cal.Fit = fre
		cal.Delta = FrechetQuantileUpper(fre, q)
	}
	if cal.Delta < cal.MeanRange {
		cal.Delta = cal.MeanRange // never calibrate below the observed mean
	}
	return cal, nil
}
