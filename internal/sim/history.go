// Delivered-message history (WithHistory): the observable that adaptive
// delay rules are allowed to react to.
//
// An adaptive adversary must stay a pure function of delivered messages to
// keep the simulator's reproducibility guarantee, so the history never
// exposes live counters. It exposes a committed prefix: per-node delivery
// counts frozen at the last epoch boundary the run crossed, plus a traffic
// ranking recomputed at each commit. Between commits the view is immutable,
// so a rule consulted twice for the same message coordinates always answers
// the same — the purity contract sim.DelayRule demands.
//
// Commit points are schedule facts, not wall-clock facts. The sequential
// loop commits when the next delivery's virtual time crosses an epoch
// boundary; the parallel executor commits at the window barrier whose start
// crosses one. The parallel window sequence is independent of the worker
// count, so adaptive parallel runs stay byte-identical across reruns AND
// across worker counts, exactly like static-adversary runs. Sequential and
// parallel runs commit at different points and so may follow different
// adaptive schedules — the same (accepted) divergence the two modes already
// have for tie-breaking and RNG streams.
package sim

import (
	"fmt"
	"sort"
	"time"

	"delphi/internal/node"
)

// HistoryView is the read-only window onto delivered traffic handed to
// adaptive delay rules (netadv.Adversary.RuleWith). The simulator backend
// implements it with epoch-committed counts (History); live backends
// implement it with continuously advancing wall-clock counts — purity and
// byte-reproducibility are simulator guarantees only.
type HistoryView interface {
	// Delivered returns the number of deliveries in the committed prefix.
	// Zero means "no history yet": adaptive rules must fall back to their
	// static placement so the pre-history schedule stays well defined.
	Delivered() int64
	// HotRank returns id's position in the committed traffic ranking:
	// rank 0 is the node with the most delivered messages sent, ties broken
	// by lower ID. Before the first commit the ranking is the identity.
	HotRank(id node.ID) int
	// HotSender returns the node at the given rank; out-of-range ranks are
	// clamped into [0, n).
	HotSender(rank int) node.ID
}

// History is the simulator's HistoryView: delivery counts committed on a
// virtual-time epoch grid. Create one per run with NewHistory and attach it
// with WithHistory; the runner records every processed delivery and commits
// the pending counts when the schedule crosses an epoch boundary. A History
// must not be shared by concurrently running Runners.
type History struct {
	n     int
	epoch time.Duration

	// Committed prefix — immutable between commits, so rules may read it
	// concurrently from parallel shard workers (the window barrier orders
	// commits against reads).
	delivered int64
	sent      []int64
	hot       []node.ID // rank -> node
	rank      []int32   // node -> rank
	commits   int

	// Pending counts (sequential mode; parallel shards keep their own) and
	// the next epoch boundary that triggers a commit.
	pendDelivered int64
	pendSent      []int64
	nextCommit    time.Duration
}

var _ HistoryView = (*History)(nil)

// NewHistory returns a history for an n-node run committing on an epoch
// grid. Epoch trades reactivity for ranking stability; callers that feed
// netadv adversaries should pass netadv.HistoryEpoch.
func NewHistory(n int, epoch time.Duration) *History {
	if n <= 0 || epoch <= 0 {
		panic(fmt.Sprintf("sim: NewHistory(n=%d, epoch=%v): both must be positive", n, epoch))
	}
	h := &History{
		n:          n,
		epoch:      epoch,
		sent:       make([]int64, n),
		hot:        make([]node.ID, n),
		rank:       make([]int32, n),
		pendSent:   make([]int64, n),
		nextCommit: epoch,
	}
	for i := range h.hot {
		h.hot[i] = node.ID(i)
		h.rank[i] = int32(i)
	}
	return h
}

// Delivered implements HistoryView.
func (h *History) Delivered() int64 { return h.delivered }

// SentMsgs returns how many committed deliveries originated at from.
func (h *History) SentMsgs(from node.ID) int64 { return h.sent[from] }

// HotRank implements HistoryView.
func (h *History) HotRank(id node.ID) int { return int(h.rank[id]) }

// HotSender implements HistoryView.
func (h *History) HotSender(rank int) node.ID {
	if rank < 0 {
		rank = 0
	}
	if rank >= h.n {
		rank = h.n - 1
	}
	return h.hot[rank]
}

// Commits returns how many epoch commits the run has performed — the
// observable the determinism tests pin.
func (h *History) Commits() int { return h.commits }

// observe advances the sequential commit grid: called with each delivery's
// virtual time (nondecreasing), it commits the pending counts once the
// schedule crosses the next epoch boundary. The triggering delivery itself
// is recorded after the commit, so the committed prefix never includes the
// delivery whose processing is consulting the rules.
func (h *History) observe(at time.Duration) {
	if at >= h.nextCommit {
		h.commitUpTo(at)
	}
}

// record adds one processed delivery from from to the pending
// (uncommitted) counts.
func (h *History) record(from node.ID) {
	h.pendDelivered++
	h.pendSent[from]++
}

// commitUpTo folds the pending counts into the committed prefix, recomputes
// the traffic ranking, and moves the commit boundary past upTo.
func (h *History) commitUpTo(upTo time.Duration) {
	h.delivered += h.pendDelivered
	h.pendDelivered = 0
	for i := range h.pendSent {
		h.sent[i] += h.pendSent[i]
		h.pendSent[i] = 0
	}
	RankHotSenders(h.sent, h.hot, h.rank)
	h.nextCommit = (upTo/h.epoch + 1) * h.epoch
	h.commits++
}

// RankHotSenders writes the hot-sender ranking of the per-node sent counts
// into hot (rank -> node) and rank (node -> rank): descending count, ties by
// ascending ID. That is a total order, so the ranking is a pure function of
// the counts. The simulator's History and the live backends' history both
// rank through it.
func RankHotSenders(sent []int64, hot []node.ID, rank []int32) {
	for i := range hot {
		hot[i] = node.ID(i)
	}
	sort.Slice(hot, func(a, b int) bool {
		if sent[hot[a]] != sent[hot[b]] {
			return sent[hot[a]] > sent[hot[b]]
		}
		return hot[a] < hot[b]
	})
	for r, id := range hot {
		rank[id] = int32(r)
	}
}
