package advsearch

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"delphi/internal/netadv"
	"delphi/internal/run"
)

// quickConfig is a reduced search that still exercises every stage: a
// 2-kind × 2-adaptivity space over 2 halving rungs plus a short anneal.
func quickConfig() Config {
	return Config{
		Protocol: run.ProtoDelphi,
		N:        8,
		Seed:     4242,
		Space: Space{
			Kinds:      []netadv.Kind{netadv.SlowF, netadv.JitterStorm},
			Severities: []float64{2},
			Onsets:     []time.Duration{0},
			Adaptive:   []bool{false, true},
		},
		Rungs:       2,
		AnnealSteps: 4,
	}
}

// TestSearchDeterministic pins the headline contract: a search is a pure
// function of its Config — byte-identical rendered profiles and evidence
// traces across reruns.
func TestSearchDeterministic(t *testing.T) {
	base, err := Search(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	for rerun := 1; rerun <= 2; rerun++ {
		got, err := Search(quickConfig())
		if err != nil {
			t.Fatalf("rerun %d: %v", rerun, err)
		}
		if got.Text() != base.Text() {
			t.Fatalf("rerun %d: profile text diverged:\n--- base\n%s--- got\n%s",
				rerun, base.Text(), got.Text())
		}
		if !bytes.Equal(got.Trace, base.Trace) {
			t.Fatalf("rerun %d: evidence trace diverged (%d vs %d bytes)",
				rerun, len(got.Trace), len(base.Trace))
		}
	}
}

// TestSearchProfileInvariants pins the profile's structural guarantees:
// no violation, argmax-over-presets, non-empty trajectory/evidence.
func TestSearchProfileInvariants(t *testing.T) {
	p, err := Search(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Violation != nil {
		t.Errorf("Delphi search found a violation: %+v", *p.Violation)
	}
	if p.BestScore < p.PresetBestScore {
		t.Errorf("winner %.3f below preset best %.3f: argmax over presets broken",
			p.BestScore, p.PresetBestScore)
	}
	if p.BestScore <= 0 || p.CleanScore <= 0 {
		t.Errorf("degenerate scores: best=%.3f clean=%.3f", p.BestScore, p.CleanScore)
	}
	if p.BestScore < p.CleanScore {
		t.Errorf("worst case %.3f beats clean %.3f: search found an accelerant, not an adversary",
			p.BestScore, p.CleanScore)
	}
	if len(p.Trajectory) < 3 { // 2 rungs + final at minimum
		t.Errorf("trajectory too short: %d points", len(p.Trajectory))
	}
	if p.TraceEvents == 0 || len(p.Trace) == 0 {
		t.Errorf("no evidence trace: %d events, %d bytes", p.TraceEvents, len(p.Trace))
	}
	if err := p.Best.Validate(); err != nil {
		t.Errorf("winning config invalid: %v", err)
	}
}

// TestSearchValidation pins the config rejections.
func TestSearchValidation(t *testing.T) {
	if _, err := Search(Config{N: 8}); err == nil {
		t.Error("missing protocol accepted")
	}
	if _, err := Search(Config{Protocol: run.ProtoDelphi, N: 2}); err == nil {
		t.Error("n=2 accepted")
	}
	if _, err := Search(Config{Protocol: run.ProtoDelphi, N: 8, Objective: "entropy"}); err == nil {
		t.Error("unknown objective accepted")
	}
}

// TestSearchDolevBudget runs a one-candidate search against Dolev at n=8.
// Every probe takes Dolev's fault budget, (n-1)/5 = 1; the t < n/3 budget
// of 2 would fail Dolev's n >= 5t+1 check on the first probe.
func TestSearchDolevBudget(t *testing.T) {
	p, err := Search(Config{
		Protocol: run.ProtoDolev,
		N:        8,
		Seed:     7,
		Space: Space{
			Kinds:      []netadv.Kind{netadv.SlowF},
			Severities: []float64{1},
			Onsets:     []time.Duration{0},
			Adaptive:   []bool{false},
		},
		Rungs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.F != 1 {
		t.Errorf("profile f = %d, want Dolev's (8-1)/5 = 1", p.F)
	}
	if p.Probes == 0 || p.BestScore <= 0 {
		t.Errorf("degenerate search: probes=%d best=%.3f", p.Probes, p.BestScore)
	}
}

// TestSearchDolevNoViolation searches Dolev et al. under jitter storms at
// n=16, where a Dolev that trims 2f values per side breaks its halving
// guarantee in about one run in five: the correct protocol yields a profile
// with no violation, and the profile's text leads with none.
func TestSearchDolevNoViolation(t *testing.T) {
	p, err := Search(Config{
		Protocol: run.ProtoDolev,
		N:        16,
		Seed:     11,
		Space: Space{
			Kinds:      []netadv.Kind{netadv.JitterStorm},
			Severities: []float64{1, 2, 3},
			Onsets:     []time.Duration{0},
			Adaptive:   []bool{false, true},
		},
		Rungs:       2,
		AnnealSteps: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Violation != nil {
		t.Fatalf("violation: %+v\n%s", *p.Violation, p.Text())
	}
	if strings.Contains(p.Text(), "VIOLATION") {
		t.Errorf("a clean profile prints a violation:\n%s", p.Text())
	}
}
