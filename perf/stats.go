package main

import (
	"math"
	"math/bits"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear interpolation
// between order statistics; NaN when xs is empty.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	idx := p * float64(len(s)-1)
	lo := int(idx)
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := idx - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(xs, n=4) (method "exclusive") does, which is how the
// acceptance procedure in README.md measures a metric's spread: position
// (n+1)·k/4 on the sorted sample, clamped to the ends.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the inter-quartile distance as a share of the median: the
// run-to-run noise figure every end-to-end bound is compared against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.NaN()
	}
	return math.Abs((q3 - q1) / q2)
}

// tailBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it (choosing-metrics §1).
const tailBeyond = 10

// supportsPercentile reports whether n samples leave at least tailBeyond of
// them beyond the p-quantile.
func supportsPercentile(n int, p float64) bool {
	return float64(n)*(1-p) >= tailBeyond
}

// tailPercentile returns the p-quantile when the sample supports it, else
// the highest of the fallback ladder that it does support (down to the
// median), along with the percentile actually used.
func tailPercentile(xs []float64, p float64) (value, used float64) {
	for _, q := range []float64{p, 0.95, 0.90, 0.75, 0.5} {
		if q <= p && supportsPercentile(len(xs), q) {
			return quantile(xs, q), q
		}
	}
	return median(xs), 0.5
}

// durHist is a log-linear histogram of nanosecond durations: 8 sub-buckets
// per power of two, so a percentile read from it is within ~9 % of the true
// value — enough to tell a 2 µs step from a 20 µs one at two clock reads per
// sample and no stored samples.
type durHist [64 * 8]uint32

func (h *durHist) add(ns int64) {
	if ns < 1 {
		ns = 1
	}
	exp := bits.Len64(uint64(ns)) - 1
	sub := 0
	if exp >= 3 {
		sub = int(uint64(ns)>>(uint(exp)-3)) & 7
	}
	h[exp*8+sub]++
}

func (h *durHist) merge(o *durHist) {
	for i, c := range o {
		h[i] += c
	}
}

// percentile returns the p-quantile in nanoseconds (bucket midpoint).
func (h *durHist) percentile(p float64) float64 {
	var total uint64
	for _, c := range h {
		total += uint64(c)
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(p * float64(total)))
	if target < 1 {
		target = 1
	}
	var seen uint64
	for i, c := range h {
		seen += uint64(c)
		if seen >= target {
			exp, sub := i/8, i%8
			if exp < 3 {
				return float64(uint64(1) << uint(exp))
			}
			lo := float64(uint64(8+sub) << (uint(exp) - 3))
			return lo * (1 + 1.0/float64(2*(8+sub)))
		}
	}
	return 0
}
