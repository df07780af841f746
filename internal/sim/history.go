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
// Commit points are schedule facts, not wall-clock facts: the executor
// commits at the window barrier whose start crosses an epoch boundary. The
// window sequence is independent of the worker count, so adaptive runs stay
// byte-identical across reruns AND across worker counts, exactly like
// static-adversary runs.
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
// with WithHistory; the runner counts every processed delivery and commits
// the counts when a window's start crosses an epoch boundary
// (Runner.commitHistory). A History must not be shared by concurrently
// running Runners.
type History struct {
	n     int
	epoch time.Duration

	// Committed prefix — immutable between commits, so rules may read it
	// concurrently from shard workers (the window barrier orders commits
	// against reads).
	delivered int64
	sent      []int64
	hot       []node.ID // rank -> node
	rank      []int32   // node -> rank
	commits   int

	nextCommit time.Duration // the epoch boundary that triggers the next commit
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

// commit ranks the counts the executor folded into the committed prefix
// and moves the commit boundary past upTo.
func (h *History) commit(upTo time.Duration) {
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
