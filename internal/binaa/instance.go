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
package binaa

import (
	"fmt"

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

// instRound holds one instance's vote state for one round. The simulator
// delivers millions of per-round votes in a paper-scale run, so the tallies
// are bitsets and small value slices rather than maps (see bitset.go); the
// voting semantics are identical to the map representation.
type instRound struct {
	// echo1 tallies, per value, the nodes that ECHO1'd it (explicitly or
	// implicitly). A node may legitimately echo several values
	// (own state + amplified values).
	echo1 votes
	// echo2 tallies, per value, the nodes whose ECHO2 counted for it.
	echo2 votes
	// echo2From marks senders whose ECHO2 vote (explicit or zeros-bundle)
	// has been consumed.
	echo2From bitset
	// echo2Explicit marks senders whose consumed ECHO2 was explicit (an
	// explicit vote overrides a previously applied implicit zero, modelling
	// message reordering).
	echo2Explicit bitset
	// sentEcho2 records that this node cast its ECHO2 for this round
	// (explicitly or via its zeros bundle).
	sentEcho2 bool
	// dirty marks membership in the engine's pending re-check list (the
	// flag deduplicates marks without a hashed set). It is set only when a
	// vote count lands on a threshold (see Engine.dirty) and cleared when
	// the entry is drained.
	dirty bool
	// annPos is 1 + this instance's position in this node's own round
	// announcement (Engine.announced), 0 if the instance is not in it. A
	// compact ECHO2 sets bit annPos-1.
	annPos int32
	// myInit is the value this node's init bundle cast for this round
	// (0 for implicit votes). The zeros bundle only covers instances whose
	// init vote was 0, so explicit ECHO2(0) may be skipped only then.
	myInit float64
	// decided / decision hold the round's outcome once reached.
	decided  bool
	decision float64
}

// newInstRound allocates one round's state for an n-node system. The two
// sender bitsets share one backing array.
func newInstRound(n int) *instRound {
	w := bitsetWords(n)
	backing := make(bitset, 2*w)
	return &instRound{echo2From: backing[:w:w], echo2Explicit: backing[w:]}
}

// markAmped records that this node echoed v this round.
func (ir *instRound) markAmped(v float64, n int) {
	ir.echo1.slot(v, n).amped = true
}

// addEcho1 records an ECHO1 vote; it returns v's new count, or 0 if the vote
// was a duplicate.
func (ir *instRound) addEcho1(from node.ID, v float64, n int) int {
	return ir.echo1.add(from, v, n)
}

// addEcho2 records an ECHO2 vote subject to the once-per-sender rule;
// explicit votes override a previously applied implicit zero (reordering).
// It returns v's new count, or 0 if the vote was ignored. The override
// withdraws a vote from 0, so 0's count can land on a threshold twice.
func (ir *instRound) addEcho2(from node.ID, v float64, explicit bool, n int) int {
	if ir.echo2From.get(from) {
		if !explicit || ir.echo2Explicit.get(from) {
			return 0 // duplicate or second explicit: ignore
		}
		// Explicit overriding implicit zero: move the vote.
		ir.echo2.remove(from, 0)
	}
	ir.echo2From.set(from)
	if explicit {
		ir.echo2Explicit.set(from)
	}
	return ir.echo2.add(from, v, n)
}

// tryDecide evaluates the two termination conditions. quorum is n-t.
func (ir *instRound) tryDecide(quorum int) {
	if ir.decided {
		return
	}
	// Condition (2): one value with n-t ECHO2s. At most one value can reach
	// the n-t majority (each sender votes once), so first-found is unique.
	for i := range ir.echo2.sets {
		if s := &ir.echo2.sets[i]; s.count >= quorum {
			ir.decided = true
			ir.decision = s.v
			return
		}
	}
	// Condition (1): two values with n-t ECHO1s each; the decision is the
	// midpoint of the smallest and the largest.
	var lo, hi float64
	k := 0
	for i := range ir.echo1.sets {
		s := &ir.echo1.sets[i]
		if s.count < quorum {
			continue
		}
		if k == 0 || s.v < lo {
			lo = s.v
		}
		if k == 0 || s.v > hi {
			hi = s.v
		}
		k++
	}
	if k >= 2 {
		ir.decided = true
		ir.decision = (lo + hi) / 2
	}
}

// inst is the per-instance state across rounds.
type inst struct {
	id IID
	// idx is the instance's position in Engine.instList; stored bundles
	// refer to instances by it (entry.ref is idx+1).
	idx uint32
	// n is the node universe size (sizes the per-round bitsets).
	n int
	// state is this node's current-round state value.
	state float64
	// joined is the round at which this node began explicit participation
	// (1 for instances in the node's own input set; the activation round
	// for late-activated instances, which join with state 0).
	joined int
	// rounds[r-1] is the vote state of round r. Grown on demand.
	rounds []*instRound
	// gen and genNonzero implement the engine's per-bundle membership
	// marks: an instance with gen equal to the engine's current generation
	// was listed in the bundle being applied (genNonzero: with a non-zero
	// value). Stamped at the first listing, so a repeated one is skipped.
	gen        uint64
	genNonzero bool
}

func (x *inst) round(r int) *instRound {
	for len(x.rounds) < r {
		x.rounds = append(x.rounds, newInstRound(x.n))
	}
	return x.rounds[r-1]
}

// decidedRound reports whether round r has decided.
func (x *inst) decidedRound(r int) bool {
	return len(x.rounds) >= r && x.rounds[r-1].decided
}
