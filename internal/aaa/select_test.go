package aaa

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestSelectFloat checks selectFloat against the sort it replaced: for every
// k, on a fresh copy, it returns what sort.Float64s leaves at v[k] — NaNs
// first — and leaves v partitioned around k, which is what lets the round's
// second selection run inside v[k:].
func TestSelectFloat(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
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
	withNaNs := random(200, rng.NormFloat64)
	for i := 0; i < 40; i++ { // f = 40 of n = 200
		withNaNs[rng.Intn(len(withNaNs))] = nan
	}
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
		"nans":         withNaNs,
		"all-nan":      {nan, nan, nan},
		"nan-and-inf":  {inf, nan, -inf, nan, 0, nan, 1, -1, nan, 2, -2, inf, 3, -3, nan},
	}
	same := func(a, b float64) bool { return a == b || a != a && b != b }
	less := func(a, b float64) bool { return a < b || a != a && b == b } // sort.Float64s's order
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
		// The round's two selections, at the largest t a receipt count admits.
		trim, v := 2*((len(in)-1)/4), slices.Clone(in)
		lo, hi := selectFloat(v, trim), selectFloat(v[trim:], len(v)-1-2*trim)
		if !same(lo, want[trim]) || !same(hi, want[len(v)-1-trim]) {
			t.Errorf("%s: trimming %d a side leaves [%v, %v], sorted has [%v, %v]", name, trim, lo, hi, want[trim], want[len(v)-1-trim])
		}
		for _, k := range ks {
			v := slices.Clone(in)
			got := selectFloat(v, k)
			if !same(got, want[k]) || !same(v[k], want[k]) {
				t.Errorf("%s: selectFloat(v, %d) = %v with v[k] = %v, sorted has %v", name, k, got, v[k], want[k])
			}
			for i, x := range v {
				if i < k && less(v[k], x) || i > k && less(x, v[k]) {
					t.Errorf("%s: after selectFloat(v, %d), v[%d] = %v is on the wrong side of v[k] = %v", name, k, i, x, v[k])
					break
				}
			}
			slices.SortFunc(v, func(a, b float64) int {
				switch {
				case less(a, b):
					return -1
				case less(b, a):
					return 1
				}
				return 0
			})
			if !slices.EqualFunc(v, want, same) {
				t.Errorf("%s: selectFloat(v, %d) did not permute v", name, k)
			}
		}
	}
}
