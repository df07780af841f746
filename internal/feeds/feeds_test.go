package feeds_test

import (
	"testing"

	"delphi/internal/dist"
	"delphi/internal/feeds"
)

func TestMarketShapeMatchesFig4(t *testing.T) {
	m, err := feeds.NewMarket(feeds.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	snaps := m.Collect(feeds.TwoWeeks)
	ranges := feeds.Ranges(snaps)

	mean, _ := dist.Moments(ranges)
	if mean < 15 || mean > 40 {
		t.Errorf("mean range %g$ outside the paper's ~25$ ballpark", mean)
	}
	// "δ values are below 100$ for 99.2% of the time".
	over100 := 0
	for _, r := range ranges {
		if r > 100 {
			over100++
		}
	}
	if frac := float64(over100) / float64(len(ranges)); frac > 0.02 {
		t.Errorf("%.2f%% of ranges above 100$, paper reports <1%%", frac*100)
	}
	// Fréchet must fit the ranges better than Gumbel (the paper's finding).
	fre, err := dist.FitFrechet(ranges)
	if err != nil {
		t.Fatalf("FitFrechet: %v", err)
	}
	gum := dist.FitGumbel(ranges)
	ksF, ksG := dist.KS(ranges, fre), dist.KS(ranges, gum)
	if ksF >= ksG {
		t.Errorf("KS frechet=%g should beat gumbel=%g", ksF, ksG)
	}
	if fre.Alpha < 2.5 || fre.Alpha > 8 {
		t.Errorf("fitted tail index α=%g far from the paper's 4.41", fre.Alpha)
	}
}

func TestMarketDeterminism(t *testing.T) {
	cfg := feeds.DefaultConfig()
	m1, _ := feeds.NewMarket(cfg, 7)
	m2, _ := feeds.NewMarket(cfg, 7)
	s1 := m1.Collect(100)
	s2 := m2.Collect(100)
	for i := range s1 {
		if s1[i].True != s2[i].True || s1[i].Quotes[3] != s2[i].Quotes[3] {
			t.Fatalf("minute %d differs across identical seeds", i)
		}
	}
}

func TestMarketValidation(t *testing.T) {
	if _, err := feeds.NewMarket(feeds.Config{BasePrice: -1}, 1); err == nil {
		t.Error("negative base price accepted")
	}
	if _, err := feeds.NewMarket(feeds.Config{BasePrice: 100, NoiseScale: 1, TailAlpha: 1.5}, 1); err == nil {
		t.Error("tail alpha <= 2 accepted")
	}
}

func TestTenExchanges(t *testing.T) {
	m, _ := feeds.NewMarket(feeds.DefaultConfig(), 2)
	s := m.Tick(0)
	if len(s.Quotes) != 10 {
		t.Fatalf("quotes = %d, want 10", len(s.Quotes))
	}
	if s.Range() <= 0 {
		t.Error("zero quote range")
	}
}
