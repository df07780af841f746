package netadv_test

import (
	"strings"
	"testing"
	"time"

	"delphi/internal/aba"
	"delphi/internal/coin"
	"delphi/internal/netadv"
	"delphi/internal/node"
	"delphi/internal/rbc"
)

// fakeHistory is a canned sim.HistoryView with a fixed hot-sender ranking,
// so the adaptive targeting logic can be asserted against known ranks.
type fakeHistory struct {
	hot       []node.ID
	rank      map[node.ID]int
	delivered int64
}

func newFakeHistory(hot []node.ID, delivered int64) *fakeHistory {
	h := &fakeHistory{hot: hot, rank: make(map[node.ID]int), delivered: delivered}
	for r, id := range hot {
		h.rank[id] = r
	}
	return h
}

func (h *fakeHistory) Delivered() int64           { return h.delivered }
func (h *fakeHistory) HotRank(id node.ID) int     { return h.rank[id] }
func (h *fakeHistory) HotSender(rank int) node.ID { return h.hot[rank] }

// TestAdaptiveTargetsHotSenders pins each preset's adaptive targeting
// against a canned ranking: slow-f delays exactly the f hottest senders,
// gray victimises the single hottest node, partition cuts the hot half from
// the cold half, coin-rush doubles down on the hottest receivers, and
// jitter-storm doubles the hot half's jitter.
func TestAdaptiveTargetsHotSenders(t *testing.T) {
	const n, f, seed = 8, 2, 42
	// Reverse ranking: node 7 is the hottest, node 0 the coldest.
	hot := []node.ID{7, 6, 5, 4, 3, 2, 1, 0}
	h := newFakeHistory(hot, 100)
	echo := &rbc.Echo{Payload: []byte("x")}

	t.Run("slow-f", func(t *testing.T) {
		rule := netadv.Adversary{Kind: netadv.SlowF, Adaptive: true}.RuleWith(n, f, seed, h)
		for from := 0; from < n; from++ {
			d := rule(0, node.ID(from), 0, echo)
			wantSlow := h.HotRank(node.ID(from)) < f
			if (d > 0) != wantSlow {
				t.Errorf("sender %d (rank %d): delay %v, want slowed=%v",
					from, h.HotRank(node.ID(from)), d, wantSlow)
			}
		}
	})

	t.Run("gray", func(t *testing.T) {
		rule := netadv.Adversary{Kind: netadv.Gray, Adaptive: true}.RuleWith(n, f, seed, h)
		victim := h.HotSender(0) // node 7
		sawDegraded := false
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				d := rule(0, node.ID(from), node.ID(to), echo)
				touchesVictim := node.ID(from) == victim || node.ID(to) == victim
				if d > 0 {
					sawDegraded = true
					if !touchesVictim {
						t.Errorf("link %d->%d delayed but does not touch hottest node %d", from, to, victim)
					}
				}
			}
		}
		if !sawDegraded {
			t.Error("no link of the hottest node degraded")
		}
	})

	t.Run("partition", func(t *testing.T) {
		rule := netadv.Adversary{Kind: netadv.Partition, Adaptive: true}.RuleWith(n, f, seed, h)
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				d := rule(0, node.ID(from), node.ID(to), echo)
				cross := (h.HotRank(node.ID(from)) < n/2) != (h.HotRank(node.ID(to)) < n/2)
				if (d > 0) != cross {
					t.Errorf("link %d->%d: delay %v, want held=%v (hot/cold cut)", from, to, d, cross)
				}
			}
		}
	})

	t.Run("coin-rush", func(t *testing.T) {
		rule := netadv.Adversary{Kind: netadv.CoinRush, Adaptive: true}.RuleWith(n, f, seed, h)
		share := &coin.Share{Coin: 1, Blob: make([]byte, coin.ShareBytes)}
		hotTo, coldTo := h.HotSender(0), h.HotSender(n-1)
		if dh, dc := rule(0, 0, hotTo, share), rule(0, 0, coldTo, share); dh != 2*dc {
			t.Errorf("share to hot receiver delayed %v, cold %v; want 2x", dh, dc)
		}
		aux := &aba.Aux{Inst: 1, Round: 2}
		if dh, dc := rule(0, 0, hotTo, aux), rule(0, 0, coldTo, aux); dh != 2*dc {
			t.Errorf("aux to hot receiver delayed %v, cold %v; want 2x", dh, dc)
		}
		if d := rule(0, 0, hotTo, echo); d != 0 {
			t.Errorf("non-coin traffic delayed %v", d)
		}
	})

	t.Run("jitter-storm", func(t *testing.T) {
		adaptive := netadv.Adversary{Kind: netadv.JitterStorm, Adaptive: true}.RuleWith(n, f, seed, h)
		static := netadv.Adversary{Kind: netadv.JitterStorm}.Rule(n, f, seed)
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				at := 7 * time.Millisecond
				da, ds := adaptive(at, node.ID(from), node.ID(to), echo), static(at, node.ID(from), node.ID(to), echo)
				if h.HotRank(node.ID(from)) < n/2 {
					want := 2 * ds
					if want > 3*time.Second {
						want = 3 * time.Second
					}
					if da != want {
						t.Errorf("hot sender %d: jitter %v, want doubled %v", from, da, want)
					}
				} else if da != ds {
					t.Errorf("cold sender %d: jitter %v differs from static %v", from, da, ds)
				}
			}
		}
	})
}

// TestAdaptiveFallsBackPreHistory pins the pre-history contract for every
// preset: with an empty committed prefix (Delivered() == 0) an adaptive rule
// behaves exactly like its static counterpart, so the schedule before the
// first commit is well defined. A static adversary handed a history with
// traffic in it ignores that history.
func TestAdaptiveFallsBackPreHistory(t *testing.T) {
	const n, f, seed = 8, 2, 42
	hot := []node.ID{7, 6, 5, 4, 3, 2, 1, 0}
	empty, full := newFakeHistory(hot, 0), newFakeHistory(hot, 100)
	for _, adv := range netadv.Presets() {
		static := adv.Rule(n, f, seed)
		ps := probe(static, n)
		adaptive := adv
		adaptive.Adaptive = true
		for _, c := range []struct {
			name string
			got  []time.Duration
		}{
			{"pre-history adaptive", probe(adaptive.RuleWith(n, f, seed, empty), n)},
			{"static with history", probe(adv.RuleWith(n, f, seed, full), n)},
		} {
			for i := range ps {
				if c.got[i] != ps[i] {
					t.Fatalf("%s: %s diverges from static at probe %d: %v vs %v",
						adv.Kind, c.name, i, c.got[i], ps[i])
				}
			}
		}
	}
}

// TestOnsetDelaysActivation pins the Onset knob: the rule is inert before
// onset and time-shifted after it (a partition holds during
// [onset, onset+heal), not [0, heal)).
func TestOnsetDelaysActivation(t *testing.T) {
	const n, f, seed = 8, 2, 42
	onset := 400 * time.Millisecond
	adv := netadv.Adversary{Kind: netadv.Partition, Onset: onset}
	rule := adv.RuleWith(n, f, seed, nil)
	cross := func(at time.Duration) time.Duration {
		return rule(at, 0, node.ID(n-1), &rbc.Echo{Payload: []byte("x")})
	}
	if d := cross(onset - time.Millisecond); d != 0 {
		t.Fatalf("pre-onset message delayed %v", d)
	}
	if d := cross(onset + time.Millisecond); d == 0 {
		t.Fatal("post-onset cross-partition message not held")
	}
	// The shifted heal: 1.5 s after onset the partition is healed even
	// though an onset-free partition would also have healed by then; probe
	// just before the shifted heal to see the difference.
	heal := 1500 * time.Millisecond
	if d := cross(onset + heal - time.Millisecond); d == 0 {
		t.Fatal("partition healed before onset+heal")
	}
	if d := cross(onset + heal + time.Millisecond); d != 0 {
		t.Fatalf("partition still held after onset+heal: %v", d)
	}
	// An onset-free partition is healed at that absolute time.
	plain := netadv.Adversary{Kind: netadv.Partition}.Rule(n, f, seed)
	if d := plain(onset+heal-time.Millisecond, 0, node.ID(n-1), &rbc.Echo{Payload: []byte("x")}); d != 0 {
		t.Fatalf("onset-free partition held past its own heal: %v", d)
	}
}

// TestAdaptiveStringAndValidate pins the rendered names (cell labels flow
// from String) and the new Validate rejections.
func TestAdaptiveStringAndValidate(t *testing.T) {
	cases := []struct {
		adv  netadv.Adversary
		want string
	}{
		{netadv.Adversary{Kind: netadv.SlowF, Adaptive: true}, "slow-f@adaptive"},
		{netadv.Adversary{Kind: netadv.Gray, Severity: 2, Adaptive: true}, "gray×2@adaptive"},
		{netadv.Adversary{Kind: netadv.Partition, Onset: 250 * time.Millisecond}, "partition@t250ms"},
		{netadv.Adversary{Kind: netadv.JitterStorm, Adaptive: true, Onset: time.Second}, "jitter-storm@adaptive@t1s"},
	}
	for _, tc := range cases {
		if got := tc.adv.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
		if err := tc.adv.Validate(); err != nil {
			t.Errorf("%s: Validate() = %v", tc.want, err)
		}
	}
	if err := (netadv.Adversary{Adaptive: true}).Validate(); err == nil {
		t.Error("adaptive None validated")
	}
	if err := (netadv.Adversary{Kind: netadv.SlowF, Onset: -time.Second}).Validate(); err == nil {
		t.Error("negative onset validated")
	}
	if !(netadv.Adversary{Kind: netadv.SlowF, Adaptive: true}).NeedsHistory() {
		t.Error("adaptive slow-f does not report needing history")
	}
	if (netadv.Adversary{Kind: netadv.SlowF}).NeedsHistory() {
		t.Error("static slow-f reports needing history")
	}
}

// TestAdaptiveCellNameInSweep pins the satellite's rendering requirement:
// an adaptive adversary's sweep cell renders as ".../adv=<kind>@adaptive".
func TestAdaptiveCellNameInSweep(t *testing.T) {
	name := "delphi/adv=" + netadv.Adversary{Kind: netadv.SlowF, Adaptive: true}.String()
	if !strings.HasSuffix(name, "/adv=slow-f@adaptive") {
		t.Fatalf("cell name %q does not end in /adv=slow-f@adaptive", name)
	}
}
