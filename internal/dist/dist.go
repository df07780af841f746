// Package dist is the statistical-distributions subsystem shared by the
// noise models in the public API (delphi.go), the extreme-value Δ
// calibration (internal/evt), the application workloads (internal/feeds,
// internal/vision), and the figure/analysis layer (internal/bench).
//
// It provides a small Distribution interface (sampling, CDF, quantile),
// six concrete families (Normal, Gamma, Lognormal, Pareto, Gumbel,
// Fréchet), method-of-moments parameter fitting (FitGumbel, FitGamma, and
// FitFrechet with the location pinned to 0), sample moments, a
// Kolmogorov–Smirnov goodness-of-fit statistic, and a text histogram used
// to render the paper's Figs. 4 and 5.
//
// Everything is pure Go with no dependencies beyond the standard library;
// randomness always flows through an explicit *rand.Rand so callers stay
// deterministic under a fixed seed.
package dist

import (
	"math"
	"math/rand"
	"sort"
)

// Distribution is a continuous univariate distribution.
type Distribution interface {
	// Name is a short lowercase family name ("normal", "frechet", ...).
	Name() string
	// Sample draws one variate using rng.
	Sample(rng *rand.Rand) float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Quantile returns the p-quantile, the x with CDF(x) = p. It is the
	// inverse of CDF on the distribution's support; p outside [0, 1]
	// yields NaN.
	Quantile(p float64) float64
}

// Mix64 is the splitmix64 finaliser: a bijection of uint64 that spreads
// every input bit over the output. Seed derivations, hashes and splitmix64
// streams (state += 0x9e3779b97f4a7c15, then Mix64(state)) share it.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Moments returns the sample mean and the unbiased sample variance.
// Empty input yields (0, 0); a single sample yields (x, 0).
func Moments(samples []float64) (mean, variance float64) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	for _, v := range samples {
		mean += v
	}
	mean /= float64(n)
	if n < 2 {
		return mean, 0
	}
	for _, v := range samples {
		d := v - mean
		variance += d * d
	}
	variance /= float64(n - 1)
	return mean, variance
}

// KS returns the Kolmogorov–Smirnov statistic sup_x |F_n(x) − F(x)|
// between the empirical CDF of samples and d's CDF. Smaller is a better
// fit; at significance level 0.05 the critical value is ≈ 1.358/√n.
func KS(samples []float64, d Distribution) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	sup := 0.0
	for i, x := range sorted {
		f := d.CDF(x)
		if math.IsNaN(f) {
			// A NaN CDF (e.g. a degenerate Beta=0 Gumbel fit) must not
			// score as a perfect fit; propagate so comparisons against
			// it never declare it the winner.
			return math.NaN()
		}
		// The empirical CDF jumps from i/n to (i+1)/n at x; the supremum
		// of the deviation is attained at one side of some jump.
		if hi := float64(i+1)/float64(n) - f; hi > sup {
			sup = hi
		}
		if lo := f - float64(i)/float64(n); lo > sup {
			sup = lo
		}
	}
	return sup
}
