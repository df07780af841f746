package dist_test

import (
	"math"
	"strings"
	"testing"

	"delphi/internal/dist"
)

func TestHistogramBinning(t *testing.T) {
	samples := []float64{-1, 0, 0.5, 1.5, 2.5, 3.5, 4, 10}
	h := dist.NewHistogram(samples, 0, 4, 4)
	if h.N != len(samples) {
		t.Errorf("N = %d, want %d", h.N, len(samples))
	}
	if h.Under != 1 || h.Over != 1 { // -1 below; 10 above; 4 == max binned
		t.Errorf("under/over = %d/%d, want 1/1", h.Under, h.Over)
	}
	want := []int{2, 1, 1, 2} // last bin closed: holds both 3.5 and 4
	for i, c := range h.Counts {
		if c != want[i] {
			t.Errorf("bin %d = %d, want %d (all: %v)", i, c, want[i], h.Counts)
		}
	}
	if bw := h.BinWidth(); bw != 1 {
		t.Errorf("bin width = %g, want 1", bw)
	}
}

func TestHistogramAutoRangeAndNaN(t *testing.T) {
	h := dist.NewHistogram([]float64{1, 2, 3, math.NaN()}, 0, 0, 2)
	if h.N != 3 {
		t.Errorf("N = %d, want 3 (NaN excluded)", h.N)
	}
	if h.Min != 1 || h.Max < 3 {
		t.Errorf("auto range = [%g, %g), want [1, ≥3)", h.Min, h.Max)
	}
	// The sample maximum must land in the (closed) last bin, not Over.
	if h.Under != 0 || h.Over != 0 {
		t.Errorf("auto range marked its own data out of range: under=%d over=%d", h.Under, h.Over)
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 3 {
		t.Errorf("binned total = %d, want 3", total)
	}
}

func TestHistogramDensityIntegratesToInRangeMass(t *testing.T) {
	samples := sampleN(dist.Normal{Mu: 0, Sigma: 1}, 10_000, 7)
	h := dist.NewHistogram(samples, -3, 3, 30)
	var mass float64
	for i := range h.Counts {
		mass += h.Density(i) * h.BinWidth()
	}
	inRange := float64(h.N-h.Under-h.Over) / float64(h.N)
	if math.Abs(mass-inRange) > 1e-9 {
		t.Errorf("density mass %g, in-range fraction %g", mass, inRange)
	}
}

func TestHistogramRenderWithOverlay(t *testing.T) {
	d := dist.Gumbel{Mu: 5, Beta: 1}
	samples := sampleN(d, 5000, 8)
	h := dist.NewHistogram(samples, 0, 15, 15)
	text := h.Render(30, d)
	if !strings.Contains(text, "gumbel") {
		t.Error("render missing overlay name")
	}
	if !strings.Contains(text, "#") {
		t.Error("render missing bars")
	}
	if len(strings.Split(strings.TrimRight(text, "\n"), "\n")) < 16 {
		t.Errorf("render too short:\n%s", text)
	}
}

// TestHistogramPointMassAtMax pins the Fig. 5 case: a clamped dataset with
// a point mass exactly at the caller-supplied max must keep that mass in
// the last bin, not discard it as out of range.
func TestHistogramPointMassAtMax(t *testing.T) {
	samples := []float64{0.5, 0.75, 1.0, 1.0, 1.0}
	h := dist.NewHistogram(samples, 0, 1, 10)
	if h.Over != 0 {
		t.Errorf("point mass at max counted out of range: over=%d", h.Over)
	}
	if last := h.Counts[len(h.Counts)-1]; last != 3 {
		t.Errorf("last bin = %d, want 3", last)
	}
}

// TestHistogramInfSamples pins the no-panic contract: infinities are out
// of range by definition, even when they would poison the auto range.
func TestHistogramInfSamples(t *testing.T) {
	h := dist.NewHistogram([]float64{1, 2, math.Inf(1), math.Inf(-1)}, 0, 0, 10)
	if h.Over != 1 || h.Under != 1 {
		t.Errorf("under/over = %d/%d, want 1/1", h.Under, h.Over)
	}
	if math.IsInf(h.Max, 0) || math.IsInf(h.Min, 0) {
		t.Errorf("auto range picked up an infinity: [%g, %g]", h.Min, h.Max)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := dist.NewHistogram(nil, 0, 0, 0)
	if len(h.Counts) != 1 || h.N != 0 {
		t.Errorf("empty histogram = %+v", h)
	}
	if h.Render(10) == "" {
		t.Error("empty histogram should still render")
	}
	if h.Density(0) != 0 {
		t.Error("empty histogram density should be 0")
	}
}
