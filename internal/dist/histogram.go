package dist

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-range equal-width binning of a sample, used by the
// bench layer to render the paper's Figs. 4 and 5 as text.
type Histogram struct {
	// Min and Max delimit the binned range [Min, Max]. Interior bin
	// edges are half-open [lo, hi); the last bin is closed so a point
	// mass exactly at Max (e.g. Fig. 5's IoU = 1.0 spike) is binned
	// rather than counted out of range.
	Min, Max float64
	// Counts holds the per-bin sample counts.
	Counts []int
	// Under and Over count samples below Min and above Max.
	Under, Over int
	// N is the total number of samples offered, in or out of range.
	N int
}

// NewHistogram bins samples into the given number of equal-width bins over
// [min, max]. Out-of-range samples land in Under/Over rather than being
// dropped silently. A non-positive bin count is clamped to one bin; an
// empty range (max <= min) auto-ranges over the finite extrema of the
// data, falling back to a unit-width range for constant or empty samples.
func NewHistogram(samples []float64, min, max float64, bins int) *Histogram {
	if bins < 1 {
		bins = 1
	}
	if !(max > min) {
		min, max = minMax(samples)
		if !(max > min) { // constant or empty sample
			max = min + 1
		}
	}
	h := &Histogram{Min: min, Max: max, Counts: make([]int, bins), N: len(samples)}
	width := (max - min) / float64(bins)
	for _, v := range samples {
		switch {
		case math.IsNaN(v):
			h.N-- // NaNs are uncountable; exclude them entirely
		case v < min || math.IsInf(v, -1):
			h.Under++
		case v > max || math.IsInf(v, 1):
			// The explicit Inf checks matter when a bound is itself
			// infinite (Inf > Inf is false): infinities always count as
			// out of range, never as a bin index.
			h.Over++
		default:
			i := int((v - min) / width)
			if i >= bins { // v == max, or float round-up at a right edge
				i = bins - 1
			}
			if i < 0 { // caller passed a non-finite bound; width is NaN
				i = 0
			}
			h.Counts[i]++
		}
	}
	return h
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 {
	return (h.Max - h.Min) / float64(len(h.Counts))
}

// Density returns bin i's empirical probability density (normalized so
// the histogram integrates to the in-range mass).
func (h *Histogram) Density(i int) float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Counts[i]) / (float64(h.N) * h.BinWidth())
}

// Render draws the histogram as rows of '#' bars scaled to width columns.
// Each overlay distribution contributes a column of expected per-bin
// counts (N · (CDF(hi) − CDF(lo))) so a fit can be eyeballed against the
// data, mirroring the model-overlay curves of the paper's figures.
func (h *Histogram) Render(width int, overlays ...Distribution) string {
	if width < 1 {
		width = 1
	}
	peak := 1
	for _, c := range h.Counts {
		if c > peak {
			peak = c
		}
	}
	var b strings.Builder
	if len(overlays) > 0 {
		// 21 chars matches the "[%9.3f,%9.3f)" bin label below.
		fmt.Fprintf(&b, "%21s %*s %8s", "bin", width, "", "count")
		for _, o := range overlays {
			fmt.Fprintf(&b, " %10s", o.Name())
		}
		b.WriteByte('\n')
	}
	bw := h.BinWidth()
	for i, c := range h.Counts {
		lo := h.Min + float64(i)*bw
		bar := strings.Repeat("#", c*width/peak)
		fmt.Fprintf(&b, "[%9.3f,%9.3f) %-*s %8d", lo, lo+bw, width, bar, c)
		for _, o := range overlays {
			expected := float64(h.N) * (o.CDF(lo+bw) - o.CDF(lo))
			fmt.Fprintf(&b, " %10.1f", expected)
		}
		b.WriteByte('\n')
	}
	if h.Under > 0 || h.Over > 0 {
		fmt.Fprintf(&b, "out of range: %d below %.3f, %d above %.3f\n",
			h.Under, h.Min, h.Over, h.Max)
	}
	return b.String()
}

// minMax returns the finite extrema of samples, ignoring NaNs and
// infinities (an infinite auto-range would make every bin width infinite).
func minMax(samples []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range samples {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if math.IsInf(lo, 1) { // empty input
		return 0, 0
	}
	return lo, hi
}
