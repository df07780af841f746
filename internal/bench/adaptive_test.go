package bench

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"delphi/internal/core"
	"delphi/internal/netadv"
	"delphi/internal/run"
)

// adaptiveAdversaries is the adaptive test matrix: every preset kind with
// history-reactive targeting on, one with a delayed onset.
func adaptiveAdversaries() []netadv.Adversary {
	return []netadv.Adversary{
		{Kind: netadv.SlowF, Adaptive: true},
		{Kind: netadv.Gray, Adaptive: true},
		{Kind: netadv.Partition, Adaptive: true, Severity: 0.25},
		{Kind: netadv.CoinRush, Adaptive: true},
		{Kind: netadv.JitterStorm, Adaptive: true, Severity: 0.25},
	}
}

// TestAdaptiveAdversarySafety runs every protocol under every adaptive
// rule: each run must pass the per-run agreement and validity check and
// keep its outputs within ρ0+ε of the input hull, whatever the
// history-reactive schedule does. Severity on the heavy kinds is kept low
// so quick-scale runs converge.
func TestAdaptiveAdversarySafety(t *testing.T) {
	params := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2}
	const center, delta = 41000.0, 20.0
	for _, proto := range []run.Protocol{run.ProtoDelphi, run.ProtoFIN, run.ProtoAbraham, run.ProtoDolev} {
		for _, adv := range adaptiveAdversaries() {
			t.Run(fmt.Sprintf("%s/%s", proto, adv), func(t *testing.T) {
				spec := parallelSpec(proto, adv, params, center, delta, run.TrialSeed(910, 0))
				st, err := run.Run(spec)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				checkTightHull(t, "sim", st, params, center, delta)
			})
		}
	}
}

// TestAdaptiveDeterminism pins the reproducibility contract end to end at
// the harness layer: an adaptive adversary's run is byte-identical across
// reruns and across parallel worker counts, because the rule only reads the
// committed history prefix and the coordinator commits on a worker-count
// independent schedule.
func TestAdaptiveDeterminism(t *testing.T) {
	params := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2}
	const center, delta = 41000.0, 20.0
	for _, adv := range []netadv.Adversary{
		{Kind: netadv.SlowF, Adaptive: true},
		{Kind: netadv.JitterStorm, Adaptive: true, Severity: 0.25},
	} {
		t.Run(adv.String(), func(t *testing.T) {
			spec := parallelSpec(run.ProtoFIN, adv, params, center, delta, run.TrialSeed(911, 0))
			spec.SimWorkers = 4
			base, err := run.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			rerun, err := run.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rerun, base) {
				t.Fatalf("rerun diverged:\n got %+v\nwant %+v", rerun, base)
			}
			for _, workers := range []int{1, 8} {
				spec.SimWorkers = workers
				got, err := run.Run(spec)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(got, base) {
					t.Fatalf("workers=%d: stats diverged from workers=4 baseline:\n got %+v\nwant %+v",
						workers, got, base)
				}
			}
		})
	}
}

// TestAdversarySweepOverAdaptive pins the sweep's column axis: the sweep
// accepts arbitrary adversary configs and adaptive cells render with the
// @adaptive marker in the report.
func TestAdversarySweepOverAdaptive(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	sweep := func(advs ...netadv.Adversary) (string, error) {
		texts, err := (&Engine{}).runPlans([]string{"adversary"}, []Plan[string]{adversarySweep(Quick, 7, advs)})
		if err != nil {
			return "", err
		}
		return texts[0], nil
	}
	text, err := sweep(netadv.Adversary{}, netadv.Adversary{Kind: netadv.SlowF, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "slow-f@adaptive") {
		t.Fatalf("report does not render the adaptive cell:\n%s", text)
	}
	if _, err := sweep(); err == nil {
		t.Error("empty adversary list accepted")
	}
	if _, err := sweep(netadv.Adversary{Adaptive: true}); err == nil {
		t.Error("invalid adversary (adaptive none) accepted")
	}
}
