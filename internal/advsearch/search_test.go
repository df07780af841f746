package advsearch

import (
	"bytes"
	"testing"
	"time"

	"delphi/internal/netadv"
	"delphi/internal/run"
)

// quickConfig is a reduced search that still exercises every stage: a
// 2-kind × 2-adaptivity space over 2 halving rungs plus a short anneal.
func quickConfig(workers int) Config {
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
		SimWorkers:  workers,
	}
}

// TestSearchDeterministic pins the headline contract: a search is a pure
// function of its Config — byte-identical rendered profiles and evidence
// traces across reruns AND across sim worker counts.
func TestSearchDeterministic(t *testing.T) {
	base, err := Search(quickConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := Search(quickConfig(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Text() != base.Text() {
			t.Fatalf("workers=%d: profile text diverged:\n--- base\n%s--- got\n%s",
				workers, base.Text(), got.Text())
		}
		if !bytes.Equal(got.Trace, base.Trace) {
			t.Fatalf("workers=%d: evidence trace diverged (%d vs %d bytes)",
				workers, len(got.Trace), len(base.Trace))
		}
	}
}

// TestSearchProfileInvariants pins the profile's structural guarantees:
// accounting identity, argmax-over-presets, non-empty trajectory/evidence.
func TestSearchProfileInvariants(t *testing.T) {
	p, err := Search(quickConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if p.Probes != p.Scored+p.TimedOut {
		t.Errorf("accounting identity broken: probes=%d scored=%d timedout=%d",
			p.Probes, p.Scored, p.TimedOut)
	}
	if p.TimedOut != 0 {
		t.Errorf("sim probes timed out: %d", p.TimedOut)
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
	if p.Scored == 0 || p.BestScore <= 0 {
		t.Errorf("degenerate search: scored=%d best=%.3f", p.Scored, p.BestScore)
	}
}

// TestReplayTimeoutAccounting forces every tcp attempt to miss an absurd
// deadline and checks the satellite's no-wedge contract: the replay returns
// (no hang), timeouts are counted, the accounting identity still holds, and
// a never-completing replay is not an error.
func TestReplayTimeoutAccounting(t *testing.T) {
	p, err := Search(quickConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	preProbes := p.Probes
	res, err := p.ReplayTCP(ReplayConfig{
		Deadline: time.Millisecond, // no 8-node cluster finishes in 1 ms
		Retries:  -1,               // negative means zero retries
		Backoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatalf("forced-timeout replay errored: %v", err)
	}
	if res.TimedOut == 0 || res.Scored != 0 {
		t.Errorf("expected pure timeouts, got scored=%d timedout=%d", res.Scored, res.TimedOut)
	}
	if res.Attempts != 2 { // clean + worst, one attempt each
		t.Errorf("attempts=%d, want 2", res.Attempts)
	}
	if res.Degraded {
		t.Error("degradation confirmed with no completed run")
	}
	if p.Probes != preProbes+res.Attempts {
		t.Errorf("replay attempts not folded into profile probes: %d -> %d", preProbes, p.Probes)
	}
	if p.Probes != p.Scored+p.TimedOut {
		t.Errorf("accounting identity broken after replay: probes=%d scored=%d timedout=%d",
			p.Probes, p.Scored, p.TimedOut)
	}
}

// TestReplayConfirmsDegradation runs the real tcp replay (clean + worst
// case) and checks the degradation direction live.
func TestReplayConfirmsDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("live replay in -short mode")
	}
	p, err := Search(quickConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ReplayTCP(ReplayConfig{Deadline: 60 * time.Second})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Scored != 2 {
		t.Fatalf("replay did not complete both runs: scored=%d timedout=%d", res.Scored, res.TimedOut)
	}
	if !res.Degraded {
		t.Errorf("worst case did not degrade live: clean=%v worst=%v", res.CleanWall, res.WorstWall)
	}
	if p.Replay != res {
		t.Error("replay result not attached to profile")
	}
	if p.Probes != p.Scored+p.TimedOut {
		t.Errorf("accounting identity broken: probes=%d scored=%d timedout=%d",
			p.Probes, p.Scored, p.TimedOut)
	}
}
