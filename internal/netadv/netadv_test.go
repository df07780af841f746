package netadv_test

import (
	"testing"
	"time"

	"delphi/internal/aba"
	"delphi/internal/coin"
	"delphi/internal/netadv"
	"delphi/internal/node"
	"delphi/internal/rbc"
)

// probe is a small fixed grid of rule arguments covering both partition
// halves, the gray victim's links, pre- and post-heal times, and distinct
// message types.
func probe(rule func(time.Duration, node.ID, node.ID, node.Message) time.Duration, n int) []time.Duration {
	msgs := []node.Message{
		&rbc.Echo{Payload: []byte("x")},
		&coin.Share{Coin: 1, Blob: make([]byte, coin.ShareBytes)},
		&aba.Aux{Inst: 1, Round: 2},
	}
	var out []time.Duration
	for _, at := range []time.Duration{0, 500 * time.Millisecond, 3 * time.Second} {
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				for _, m := range msgs {
					out = append(out, rule(at, node.ID(from), node.ID(to), m))
				}
			}
		}
	}
	return out
}

// TestRulesArePure pins the determinism contract: two materialisations of
// the same adversary at the same (n, f, seed) agree on every probe point,
// and at least one probe point is actually delayed.
func TestRulesArePure(t *testing.T) {
	n, f := 8, 2
	for _, adv := range netadv.Presets() {
		a := adv.Rule(n, f, 42)
		b := adv.Rule(n, f, 42)
		if a == nil || b == nil {
			t.Fatalf("%s: nil rule for a non-empty adversary", adv)
		}
		pa, pb := probe(a, n), probe(b, n)
		delayed := false
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("%s: rule not pure at probe %d: %v vs %v", adv, i, pa[i], pb[i])
			}
			if pa[i] < 0 {
				t.Fatalf("%s: negative delay %v at probe %d", adv, pa[i], i)
			}
			if pa[i] > 0 {
				delayed = true
			}
		}
		if !delayed {
			t.Errorf("%s: no probe point delayed — preset is a no-op", adv)
		}
	}
}

// TestSeedChangesJitter pins that the seed actually feeds the randomized
// presets: jitter-storm schedules at different seeds must differ.
func TestSeedChangesJitter(t *testing.T) {
	adv := netadv.Adversary{Kind: netadv.JitterStorm}
	a := probe(adv.Rule(8, 2, 1), 8)
	b := probe(adv.Rule(8, 2, 2), 8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("jitter-storm: identical schedules at seeds 1 and 2 — seed unused")
	}
}

// TestPartitionHeals pins the transient shape: cross-partition messages are
// held before the heal and flow freely afterwards; intra-partition traffic
// is never touched.
func TestPartitionHeals(t *testing.T) {
	n := 8
	rule := netadv.Adversary{Kind: netadv.Partition}.Rule(n, 2, 7)
	m := &rbc.Echo{Payload: []byte("x")}
	if d := rule(0, 0, node.ID(n-1), m); d <= 0 {
		t.Error("cross-partition message at t=0 not held")
	}
	if d := rule(10*time.Second, 0, node.ID(n-1), m); d != 0 {
		t.Errorf("cross-partition message after heal delayed by %v", d)
	}
	if d := rule(0, 0, 1, m); d != 0 {
		t.Errorf("intra-partition message delayed by %v", d)
	}
	// Held messages are delivered at/after the heal, never before it.
	at := 200 * time.Millisecond
	if held := rule(at, 0, node.ID(n-1), m); at+held < 1500*time.Millisecond {
		t.Errorf("held message released at %v, before the heal", at+held)
	}
}

// TestCoinRushTargetsCoinTraffic pins the selective preset: coin shares and
// AUX votes are delayed, everything else passes.
func TestCoinRushTargetsCoinTraffic(t *testing.T) {
	rule := netadv.Adversary{Kind: netadv.CoinRush}.Rule(8, 2, 7)
	if d := rule(0, 0, 1, &coin.Share{}); d <= 0 {
		t.Error("coin share not delayed")
	}
	if d := rule(0, 0, 1, &aba.Aux{}); d <= 0 {
		t.Error("ABA AUX not delayed")
	}
	if d := rule(0, 0, 1, &rbc.Echo{}); d != 0 {
		t.Errorf("RBC echo delayed by %v", d)
	}
}

// TestSeverityScales pins the knob: severity 2 doubles slow-f's delay.
func TestSeverityScales(t *testing.T) {
	m := &rbc.Echo{}
	base := netadv.Adversary{Kind: netadv.SlowF}.Rule(8, 2, 1)(0, 0, 5, m)
	twice := netadv.Adversary{Kind: netadv.SlowF, Severity: 2}.Rule(8, 2, 1)(0, 0, 5, m)
	if twice != 2*base {
		t.Errorf("severity 2: delay %v, want %v", twice, 2*base)
	}
}

// TestValidate pins kind/severity validation and the None special cases.
func TestValidate(t *testing.T) {
	if err := (netadv.Adversary{}).Validate(); err != nil {
		t.Errorf("zero adversary rejected: %v", err)
	}
	for _, adv := range netadv.Presets() {
		if err := adv.Validate(); err != nil {
			t.Errorf("%s rejected: %v", adv, err)
		}
	}
	if err := (netadv.Adversary{Kind: "warp"}).Validate(); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := (netadv.Adversary{Kind: netadv.SlowF, Severity: -1}).Validate(); err == nil {
		t.Error("negative severity accepted")
	}
	if rule := (netadv.Adversary{}).Rule(8, 2, 1); rule != nil {
		t.Error("None materialised a non-nil rule")
	}
	if got := (netadv.Adversary{}).String(); got != "none" {
		t.Errorf("None renders as %q, want none", got)
	}
	if got := (netadv.Adversary{Kind: netadv.Gray, Severity: 2}.String()); got != "gray×2" {
		t.Errorf("scaled adversary renders as %q", got)
	}
}

// TestPlacementDefaultsPinned pins every node-targeting preset's fixed
// targets: slow-f delays exactly slots [0, f), gray victimises node n/2,
// partition cuts lower half from upper half.
func TestPlacementDefaultsPinned(t *testing.T) {
	n, f := 8, 2
	m := &rbc.Echo{Payload: []byte("x")}

	slow := netadv.Adversary{Kind: netadv.SlowF}.Rule(n, f, 42)
	for from := 0; from < n; from++ {
		d := slow(0, node.ID(from), node.ID((from+1)%n), m)
		if (from < f) != (d > 0) {
			t.Errorf("slow-f default: slot %d delayed=%v, want slots [0,%d) only", from, d > 0, f)
		}
	}

	gray := netadv.Adversary{Kind: netadv.Gray}.Rule(n, f, 42)
	victim := node.ID(n / 2)
	if gray(0, victim, victim+1, m) == 0 {
		t.Error("gray default: victim n/2's odd-parity link not degraded")
	}
	if gray(0, victim+1, victim+3, m) != 0 {
		t.Error("gray default: non-victim link degraded")
	}

	part := netadv.Adversary{Kind: netadv.Partition}.Rule(n, f, 42)
	if part(0, 0, node.ID(n-1), m) == 0 {
		t.Error("partition default: cross-half link not held")
	}
	if part(0, 0, 1, m) != 0 || part(0, node.ID(n-2), node.ID(n-1), m) != 0 {
		t.Error("partition default: same-half link held")
	}
}
