// Package binaa implements the paper's BinAA building block (Algorithm 1):
// binary approximate agreement over a *set* of instances — one per
// (level, checkpoint) pair — with the §III-C bundling optimisation. Each
// round of each instance is a weak Binary-Value broadcast (crusader
// agreement): ECHO1 with Bracha-style amplification, then ECHO2, then a
// decision by one of two conditions:
//
//	(1) two values each supported by n-t ECHO1s  → next state (b1+b2)/2
//	(2) one value supported by n-t ECHO2s        → next state b
//
// Bundling: a node's per-round "init" bundle lists only its non-zero state
// values; every unlisted instance implicitly receives ECHO1(0). Likewise a
// per-round "zeros" ECHO2 bundle casts ECHO2(0) for every instance the
// sender has not explicitly ECHO2'd. All-zero checkpoints therefore cost
// O(1) bits per node per round, giving the paper's O(n²·min(δ/ρ0, n))
// per-round communication.
//
// Late activation ("wire-consistent joining"): a node that first hears of an
// instance after it opened round r joins with state 0 — exactly the value
// its implicit votes already cast — and participates explicitly from the
// current round onward, while still amplifying ECHO1 values for older rounds
// to preserve liveness for slower peers. Joining with 0 is the only state
// consistent with what peers have already counted: the node's init bundles
// for the rounds it has opened cast ECHO1(0) for the instance, and an honest
// node's state must equal its own init vote. Old rounds cannot stall on it
// either, since amplification and the zeros bundle still run there.
//
// Message ownership: handlers never mutate or take ownership of a delivered
// message's slices. The simulator hands one message pointer to all n
// receivers, so an engine copies what it keeps. The one thing retained by
// reference is a whole *Echo1C buffered until its base round arrives, and it
// is only ever read. A stored bundle (Engine.initBundles) is the engine's own
// slice; it lives until the engine has left its round and the sender's next
// compressed bundle has arrived, which is then built in it.
//
// Left rounds: ECHO2 traffic — zeros bundle, bitmap, explicit votes — for a
// round below the engine's current one is dropped on arrival: it feeds only
// that round's decisions, which the engine reads only while in the round (it
// leaves on n-t zeros bundles, so t senders' ECHO2s always come late). ECHO1s
// of left rounds still count — amplification and ECHO2 emission, which slower
// peers wait for, depend on them alone — and a late vote's instance activates.
//
// Implicit tallies: nearly every vote an (instance, round) receives is a
// bundle or bitmap vote that agrees with all earlier ones, so it keeps no
// tally while (1) every ECHO1 vote it has counted is a round-r bundle vote
// for one value u, neither NaN nor −0 — its ECHO1 tally is (u, initCount) —
// and (2) every explicit ECHO2 that reached it is a bitmap vote for u ≠ 0 —
// its ECHO2 tally is (0, |initSeen ∩ zerosSenders|) if u is 0, else (u, e2),
// with e2's senders in the round's voter slab. The first vote that breaks
// either materialises the tally: it is copied from the round's sender
// bitsets (a bundle's sender is recorded after its votes) and the slab, and
// counts votes one by one from then on. The implicit tallies of a round
// share their ECHO1 and zeros counts, so they cross those thresholds at the
// same delivery, which marks those on which check still has an action
// (Engine.due); e2 marks its own pair on reaching n-t. check acts on no other.
//
// Quiet rounds: a bundle is clean if it changed no tally — every entry was
// absorbed by an implicit tally, none was listed twice, every unlisted
// instance was implicit at 0 — so clean round-(r−1) bundles all list round
// r−1's u. A round-r compressed bundle is not walked when (1) it is unchanged
// (zero delta bytes, no new entries), (2) its sender's round-(r−1) bundle was
// clean, and (3) round r is quiet: its first bundle met (1) and (2) and was
// clean itself, and no round-r tally has materialised since. It is then round
// r's u at every instance, and only recorded. The first bundle's walk is
// needed: it is what meets a tally an echo materialised ahead of the bundle.
package binaa

import (
	"fmt"
	"math"

	"delphi/internal/node"
)

// IID identifies one BinAA instance: checkpoint K at a level.
type IID struct {
	// Level is the Delphi level (0 for standalone BinAA uses).
	Level uint8
	// K is the checkpoint index: the checkpoint value is K*ρ_level.
	K int32
}

// String implements fmt.Stringer.
func (id IID) String() string { return fmt.Sprintf("L%d/K%d", id.Level, id.K) }

// instRound is one instance's state for one round, Engine.rounds[r-1][idx].
// Its tallies are implicit (t == nil) until materialised, see the package
// comment.
type instRound struct {
	t *tally
	// u is the value of every ECHO1 vote an implicit tally has counted.
	u float64
	// myInit is the value this node's init bundle cast for this round
	// (0 for implicit votes). The zeros bundle only covers instances whose
	// init vote was 0, so explicit ECHO2(0) may be skipped only then.
	myInit float64
	// decision is the round's outcome once decided.
	decision float64
	// e2 counts an implicit tally's bitmap votes for u ≠ 0 (Engine.bitVoters).
	e2 int32
	// annPos is 1 + this instance's position in this node's own round
	// announcement (Engine.announced), 0 if the instance is not in it. A
	// compact ECHO2 sets bit annPos-1.
	annPos int32
	// opened: this node has echoed myInit this round (its init bundle, or
	// the implicit 0 of a late activation); ampedU: it has amplified u.
	opened, ampedU bool
	// sentEcho2 records that this node cast its ECHO2 for this round
	// (explicitly or via its zeros bundle).
	sentEcho2 bool
	// dirty marks membership in the engine's pending re-check list (the
	// flag deduplicates marks without a hashed set; see Engine.dirty).
	dirty   bool
	decided bool
}

// tally is a materialised instRound's vote state (sets as in bitset.go).
type tally struct {
	// echo1 tallies, per value, the nodes that ECHO1'd it (explicitly or
	// implicitly). A node may legitimately echo several values
	// (own state + amplified values).
	echo1 votes
	// echo2 tallies, per value, the nodes whose ECHO2 counted for it.
	echo2 votes
	// echo2From marks senders whose ECHO2 vote (explicit or zeros-bundle)
	// has been consumed; echo2Explicit those whose consumed ECHO2 was
	// explicit (an explicit vote overrides a previously applied implicit
	// zero, modelling message reordering). zeroFrom marks the senders whose
	// init vote was 0, the ones whose zeros bundle counts here.
	echo2From, echo2Explicit, zeroFrom bitset
	// sets is room for the first set of each of echo1 and echo2.
	sets [2]voteSet
}

// plain reports whether v may be an implicit tally's u: a NaN vote is a
// tally of its own, and −0 shares 0's tally under a representative fixed by
// which came first.
func plain(v float64) bool { return v == v && (v != 0 || !math.Signbit(v)) }

// addEcho2 records an ECHO2 vote subject to the once-per-sender rule;
// explicit votes override a previously applied implicit zero (reordering).
// It returns v's new count, or 0 if the vote was ignored. The override
// withdraws a vote from 0, so 0's count can land on a threshold twice.
func (t *tally) addEcho2(from node.ID, v float64, explicit bool, n int) int {
	if t.echo2From.get(from) {
		if !explicit || t.echo2Explicit.get(from) {
			return 0 // duplicate or second explicit: ignore
		}
		// Explicit overriding implicit zero: move the vote.
		t.echo2.remove(from, 0)
	}
	t.echo2From.set(from)
	if explicit {
		t.echo2Explicit.set(from)
	}
	return t.echo2.add(from, v, n)
}

// tryDecide evaluates the two termination conditions. quorum is n-t; zeros
// is the round's |initSeen ∩ zerosSenders|, an implicit 0's ECHO2 count.
func (ir *instRound) tryDecide(quorum, zeros int) {
	if ir.decided {
		return
	}
	if ir.t == nil {
		// One ECHO1 value only, so condition (2) on u's implicit ECHO2s alone:
		// the round's zeros bundles for 0, the tally's bitmap votes for any other.
		if ir.decided = ir.u == 0 && zeros >= quorum || ir.u != 0 && int(ir.e2) >= quorum; ir.decided {
			ir.decision = ir.u
		}
		return
	}
	// Condition (2): one value with n-t ECHO2s. At most one value can reach
	// the n-t majority (each sender votes once), so first-found is unique.
	for i := range ir.t.echo2.sets {
		if s := &ir.t.echo2.sets[i]; s.count >= quorum {
			ir.decided = true
			ir.decision = s.v
			return
		}
	}
	// Condition (1): two values with n-t ECHO1s each; the decision is the
	// midpoint of the smallest and the largest.
	var lo, hi float64
	k := 0
	for _, s := range ir.t.echo1.sets {
		if s.count >= quorum {
			if k == 0 || s.v < lo {
				lo = s.v
			}
			if k == 0 || s.v > hi {
				hi = s.v
			}
			k++
		}
	}
	if k >= 2 {
		ir.decided = true
		ir.decision = (lo + hi) / 2
	}
}

// inst is one instance: its identity and this node's current-round state.
type inst struct {
	id IID
	// idx is the instance's position in Engine.instList and in every
	// Engine.rounds row; stored bundles refer to instances by it (entry.ref
	// is idx+1).
	idx uint32
	// state is this node's current-round state value.
	state float64
}
