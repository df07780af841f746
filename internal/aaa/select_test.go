package aaa

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestSelectFloat checks selectFloat against the sort it replaced: for every
// k, on a fresh copy of NaN-free values (Dolev.Deliver drops NaNs), it
// returns what sort.Float64s leaves at v[k] and leaves v partitioned around
// k, which is what lets the round's second selection run inside v[k:].
func TestSelectFloat(t *testing.T) {
	inf := math.Inf(1)
	rng := rand.New(rand.NewSource(1))
	random := func(n int, draw func() float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = draw()
		}
		return v
	}
	sorted := random(300, rng.NormFloat64)
	sort.Float64s(sorted)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	organ := append(slices.Clone(sorted), reversed...)
	cases := map[string][]float64{
		"one":          {3},
		"two":          {2, 1},
		"under-cutoff": {5, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5},
		"at-cutoff":    random(13, rng.Float64),
		"random":       random(1000, rng.NormFloat64),
		"few-values":   random(500, func() float64 { return float64(rng.Intn(4)) }),
		"all-equal":    random(100, func() float64 { return 7 }),
		"sorted":       sorted,
		"reversed":     reversed,
		"organ-pipe":   organ,
		"infinities":   {1, inf, -inf, 0, inf, -inf, 2, -1, inf, 5, 4, 3, -inf, 9, 8, 7, 6},
	}
	for name, in := range cases {
		want := slices.Clone(in)
		sort.Float64s(want)
		ks := []int{0, len(in) - 1, len(in) / 2, len(in) / 5, len(in) - 1 - len(in)/5}
		if len(in) <= 20 {
			ks = ks[:0]
			for k := range in {
				ks = append(ks, k)
			}
		}
		// The round's two selections, at the largest t a receipt count admits:
		// n-t receipts with n >= 5t+1.
		trim, v := (len(in)-1)/4, slices.Clone(in)
		lo, hi := selectFloat(v, trim), selectFloat(v[trim:], len(v)-1-2*trim)
		if lo != want[trim] || hi != want[len(v)-1-trim] {
			t.Errorf("%s: trimming %d a side leaves [%v, %v], sorted has [%v, %v]", name, trim, lo, hi, want[trim], want[len(v)-1-trim])
		}
		for _, k := range ks {
			v := slices.Clone(in)
			got := selectFloat(v, k)
			if got != want[k] || v[k] != want[k] {
				t.Errorf("%s: selectFloat(v, %d) = %v with v[k] = %v, sorted has %v", name, k, got, v[k], want[k])
			}
			for i, x := range v {
				if i < k && v[k] < x || i > k && x < v[k] {
					t.Errorf("%s: after selectFloat(v, %d), v[%d] = %v is on the wrong side of v[k] = %v", name, k, i, x, v[k])
					break
				}
			}
			slices.Sort(v)
			if !slices.Equal(v, want) {
				t.Errorf("%s: selectFloat(v, %d) did not permute v", name, k)
			}
		}
	}
}
