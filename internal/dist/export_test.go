package dist

import "math"

// Test-only helpers: the KS oracle's critical values and a histogram's
// per-bin density.

// KSCritical returns the asymptotic one-sample KS critical value at
// significance alpha for n samples: samples genuinely drawn from the
// reference distribution exceed it with probability ≈ alpha. Supported
// alpha values are 0.10, 0.05, and 0.01; other inputs fall back to 0.05.
func KSCritical(alpha float64, n int) float64 {
	c := 1.358 // alpha = 0.05
	switch alpha {
	case 0.10:
		c = 1.224
	case 0.01:
		c = 1.628
	}
	if n < 1 {
		n = 1
	}
	return c / math.Sqrt(float64(n))
}

// Density returns bin i's empirical probability density (normalized so
// the histogram integrates to the in-range mass).
func (h *Histogram) Density(i int) float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Counts[i]) / (float64(h.N) * h.BinWidth())
}
