// Package netadv implements named network-adversary presets for the
// simulator: seed-deterministic sim.DelayRule schedules that model the
// asynchronous adversaries the paper's robustness claims are made against.
//
// The adversary model matches the paper's (§II): the network may delay and
// reorder messages arbitrarily but never drops them, and the adversary sees
// which links carry which message types. Each preset is a pure function of
// (departure time, from, to, message, seed) — no hidden state — so a run
// under any adversary remains byte-identical across reruns and across
// bench.Engine worker counts, exactly like a clean run.
//
// The presets target the regimes where the paper's latency-tail story
// (Fig. 4/5) is most interesting: targeted slowdown of honest nodes, gray
// failure of individual links, transient partitions, coin starvation of the
// randomized baselines, and heavy-tailed jitter storms.
package netadv

import (
	"fmt"
	"math"
	"time"

	"delphi/internal/aba"
	"delphi/internal/coin"
	"delphi/internal/dist"
	"delphi/internal/node"
	"delphi/internal/sim"
)

// Kind names an adversary preset.
type Kind string

// The available presets.
const (
	// None is the empty adversary: no extra delay anywhere. It is the zero
	// value, so a RunSpec without an adversary behaves exactly as before.
	None Kind = ""
	// SlowF makes the f lowest honest slots the system's slowest nodes:
	// every message they send is delayed by a fixed amount. Slots 0 and 1
	// pin the input-range extremes in the harness' workloads, so the
	// adversary is holding back precisely the measurements that define δ —
	// the worst case for approximate agreement's validity window.
	SlowF Kind = "slow-f"
	// Gray models a gray-failed node: one victim node's links degrade
	// asymmetrically — messages it sends to half its peers, and messages
	// half its peers send to it, crawl, while the remaining links stay
	// healthy. No quorum ever excludes the victim outright, which is what
	// makes gray failure harder than a crash.
	Gray Kind = "gray"
	// Partition splits the nodes into two halves and holds every
	// cross-partition message until a heal time; messages sent after the
	// heal flow normally. Deliveries are staggered pseudo-randomly after
	// the heal so the protocol absorbs a burst, not a single batch.
	Partition Kind = "partition"
	// CoinRush starves the randomized baselines: threshold-coin shares and
	// ABA AUX votes — the messages that gate each round's decision point —
	// are delayed just past where the round would otherwise decide. Delphi
	// sends neither message type, so this adversary isolates the cost of
	// coin-bound termination (the paper's core argument for determinism).
	CoinRush Kind = "coin-rush"
	// JitterStorm adds heavy-tailed (Pareto) per-message jitter on every
	// link: most messages pass nearly untouched while a deterministic few
	// straggle by orders of magnitude — the asynchronous-network regime
	// where tail latency, not mean latency, decides protocol ranking.
	JitterStorm Kind = "jitter-storm"
)

// String implements fmt.Stringer; None renders as "none".
func (k Kind) String() string {
	if k == None {
		return "none"
	}
	return string(k)
}

// Adversary is a named, parameterised network adversary. The zero value is
// no adversary. Every field is a plain knob, so the worst-case search
// (internal/advsearch) and AdversarySweep share one parameterisation: a
// point in the adversary space IS an Adversary value.
//
// A static preset's targets are a fixed function of n and f: SlowF slows
// slots [0, f) (the pinned δ extremes), Gray victimises node n/2, Partition
// cuts lower half from upper half. CoinRush and JitterStorm target message
// types, not nodes.
type Adversary struct {
	// Kind selects the preset.
	Kind Kind
	// Severity scales the preset's delays; 0 means the preset default (1.0).
	Severity float64
	// Adaptive re-targets the preset from delivered-traffic history instead
	// of its fixed targets: SlowF slows the f hottest senders, Gray
	// victimises the single hottest, Partition cuts hot half from cold
	// half, CoinRush and JitterStorm concentrate on the hot half. Requires
	// a sim.HistoryView via RuleWith; until the first history commit the
	// rule falls back to its static placement, so the schedule is always
	// well defined. Adaptive rules remain pure functions of the committed
	// history, hence byte-reproducible on the sim backend.
	Adaptive bool
	// Onset delays the adversary's activation: the rule is inert before
	// Onset and behaves as if the run started there after it (a partition
	// heals at Onset+heal, not heal). Zero means active from t=0.
	Onset time.Duration
}

// HistoryEpoch is the history commit granularity adaptive adversaries are
// designed against: coarse enough that the hot-sender ranking is stable
// between protocol phases, fine enough to re-target within a run.
const HistoryEpoch = 25 * time.Millisecond

// NeedsHistory reports whether materialising this adversary requires a
// delivered-message history (sim.WithHistory on the simulator, the live
// wrapper's counters on tcp).
func (a Adversary) NeedsHistory() bool { return a.Adaptive && a.Kind != None }

// String implements fmt.Stringer.
func (a Adversary) String() string {
	s := a.Kind.String()
	if a.Severity != 0 && a.Severity != 1 {
		s = fmt.Sprintf("%s×%g", a.Kind, a.Severity)
	}
	if a.Adaptive {
		s += "@adaptive"
	}
	if a.Onset > 0 {
		s += "@t" + a.Onset.String()
	}
	return s
}

// severity returns the delay multiplier.
func (a Adversary) severity() float64 {
	if a.Severity > 0 {
		return a.Severity
	}
	return 1
}

// Presets returns the named presets at default severity, in sweep order.
// None is excluded; sweeps that want a clean baseline add it explicitly.
func Presets() []Adversary {
	return []Adversary{
		{Kind: SlowF},
		{Kind: Gray},
		{Kind: Partition},
		{Kind: CoinRush},
		{Kind: JitterStorm},
	}
}

// Preset base magnitudes, scaled by Severity. They are sized against the
// harness' testbeds: large relative to AWS one-way latencies (≤ ~108 ms) so
// the adversary dominates the schedule, small relative to the simulator's
// virtual-time bound so every run still terminates.
const (
	slowFDelay     = 150 * time.Millisecond
	grayDelay      = 250 * time.Millisecond
	partitionHeal  = 1500 * time.Millisecond
	partitionStag  = 100 * time.Millisecond
	coinRushDelay  = 120 * time.Millisecond
	jitterScale    = 20 * time.Millisecond
	jitterCap      = 3 * time.Second
	jitterInvAlpha = 1 / 1.6 // Pareto tail index α=1.6: infinite variance
)

// Rule materialises the adversary for an n-node, f-fault system. It returns
// nil for None (callers pass nil straight to sim.WithDelayRule-less runs).
// The rule is a pure function of its arguments and the given seed. Adaptive
// adversaries need a history — use RuleWith; Rule materialises them with
// their static fallback placement.
func (a Adversary) Rule(n, f int, seed int64) sim.DelayRule {
	return a.RuleWith(n, f, seed, nil)
}

// RuleWith materialises the adversary with a delivered-message history for
// adaptive placement. h may be nil (or the adversary non-Adaptive), in which
// case targets are the static fixed ones and RuleWith == Rule. The
// returned rule reads only h's committed prefix, so on the simulator it is a
// pure function of the schedule so far — adaptive runs stay byte-identical
// across reruns and worker counts. Live backends hand in a continuously
// advancing view and give up that guarantee (as live runs already do).
func (a Adversary) RuleWith(n, f int, seed int64, h sim.HistoryView) sim.DelayRule {
	if !a.Adaptive {
		h = nil
	}
	base := a.baseRule(n, f, seed, h)
	if base == nil || a.Onset <= 0 {
		return base
	}
	onset := a.Onset
	return func(at time.Duration, from, to node.ID, m node.Message) time.Duration {
		if at < onset {
			return 0
		}
		// Shifted time: the adversary behaves as if the run began at onset,
		// so e.g. a partition holds during [onset, onset+heal).
		return base(at-onset, from, to, m)
	}
}

// baseRule builds the onset-free rule. Each preset has one rule; adaptive()
// picks its placement per message. An adaptive adversary consults h only
// once it has committed history (h.Delivered() > 0); before that, and
// always for a static adversary (h == nil), the rule uses the fixed targets,
// so the pre-history prefix of an adaptive schedule is the static one.
func (a Adversary) baseRule(n, f int, seed int64, h sim.HistoryView) sim.DelayRule {
	sev := a.severity()
	scale := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * sev)
	}
	adaptive := func() bool { return h != nil && h.Delivered() > 0 }
	switch a.Kind {
	case None:
		return nil
	case SlowF:
		slow := f
		if slow < 1 {
			slow = 1
		}
		// Slots [0, f) are honest under the harness' fault placement
		// (crashes and Byzantine nodes occupy the top f slots), and include
		// the pinned δ extremes. Adaptive: slow the `slow` hottest senders in
		// the committed ranking — the nodes currently carrying the most
		// protocol traffic, whatever slots they sit in.
		d := scale(slowFDelay)
		return func(_ time.Duration, from, _ node.ID, _ node.Message) time.Duration {
			r := int(from)
			if adaptive() {
				r = h.HotRank(from)
			}
			if r < slow {
				return d
			}
			return 0
		}
	case Gray:
		// The victim sits mid-range: never a pinned extreme, never a fault
		// slot. Adaptive: gray-fail whichever node is currently the hottest
		// sender — the worst node to degrade, since the most traffic crosses
		// its links. Links to/from peers of opposite parity degrade.
		d := scale(grayDelay)
		return func(_ time.Duration, from, to node.ID, _ node.Message) time.Duration {
			v := node.ID(n / 2)
			if adaptive() {
				v = h.HotSender(0)
			}
			if from == v && (int(to)-int(v))%2 != 0 || to == v && (int(from)-int(v))%2 != 0 {
				return d
			}
			return 0
		}
	case Partition:
		// The cut splits lower half from upper half. Adaptive: cut the hot
		// half from the cold half — the bipartition that severs the most
		// observed traffic.
		heal := scale(partitionHeal)
		stag := scale(partitionStag)
		return func(at time.Duration, from, to node.ID, _ node.Message) time.Duration {
			if at >= heal {
				return 0
			}
			rf, rt := int(from), int(to)
			if adaptive() {
				rf, rt = h.HotRank(from), h.HotRank(to)
			}
			if (rf < n/2) == (rt < n/2) {
				return 0
			}
			// Held until the heal, then released with a deterministic
			// per-message stagger.
			hold := heal - at
			if stag > 0 {
				hold += time.Duration(msgHash(seed, at, from, to, 0) % uint64(stag))
			}
			return hold
		}
	case CoinRush:
		// Adaptive: concentrate the starvation on the nodes closest to
		// assembling a coin — the f+1 hottest receivers would cross the share
		// threshold first, so their shares are held twice as long.
		d := scale(coinRushDelay)
		hot := func(to node.ID) bool { return adaptive() && h.HotRank(to) <= f }
		return func(_ time.Duration, _, to node.ID, m node.Message) time.Duration {
			switch m.(type) {
			case *coin.Share:
				if hot(to) {
					return 2 * d
				}
				return d
			case *aba.Aux:
				if hot(to) {
					return d
				}
				return d / 2
			}
			return 0
		}
	case JitterStorm:
		scl := float64(scale(jitterScale))
		return func(at time.Duration, from, to node.ID, m node.Message) time.Duration {
			mh := msgHash(seed, at, from, to, m.WireSize())
			// u uniform in (0, 1]; jitter = scale·(u^(-1/α) − 1) is Pareto
			// with tail index α — heavy enough that the maximum over a run
			// dominates the sum.
			u := (float64(mh>>11) + 1) / (1 << 53)
			j := time.Duration(scl * (math.Pow(1/u, jitterInvAlpha) - 1))
			// Adaptive: the hot half of the network draws doubled jitter, so
			// the storm lands where the traffic is.
			if adaptive() && h.HotRank(from) < n/2 {
				j *= 2
			}
			if j > jitterCap {
				j = jitterCap
			}
			return j
		}
	default:
		// Unknown kinds fail loudly at materialisation sites via Validate;
		// a nil rule here keeps Rule total.
		return nil
	}
}

// Validate rejects unknown kinds, negative severities, negative onsets, and
// adaptivity without a preset to adapt.
func (a Adversary) Validate() error {
	switch a.Kind {
	case None, SlowF, Gray, Partition, CoinRush, JitterStorm:
	default:
		return fmt.Errorf("netadv: unknown adversary kind %q", string(a.Kind))
	}
	if a.Severity < 0 {
		return fmt.Errorf("netadv: negative severity %g", a.Severity)
	}
	if a.Onset < 0 {
		return fmt.Errorf("netadv: negative onset %v", a.Onset)
	}
	if a.Adaptive && a.Kind == None {
		return fmt.Errorf("netadv: adaptive set on the empty adversary")
	}
	return nil
}

// msgHash mixes the per-message coordinates with the seed through the
// splitmix64 finalizer: deterministic, well-dispersed, and cheap enough for
// the dispatch hot path.
func msgHash(seed int64, at time.Duration, from, to node.ID, size int) uint64 {
	return dist.Mix64(uint64(seed) ^ uint64(at)*0x9e3779b97f4a7c15 ^
		uint64(from)<<32 ^ uint64(to)<<16 ^ uint64(size))
}
