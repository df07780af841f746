package backend

import (
	"sync"
	"sync/atomic"

	"delphi/internal/node"
	"delphi/internal/sim"
)

// liveRerankEvery bounds how often the hot-sender ranking is recomputed:
// once per this many recorded frames, so the delay hot path stays at an
// atomic add and the ranking cost is amortised across the run.
const liveRerankEvery = 64

// liveHistory is the live backends' sim.HistoryView: the delivered-frame
// counts the advTransport wrappers accumulate, shared across every node of
// one cluster. Unlike the simulator's epoch-committed History it advances
// continuously on wall-clock delivery order, so adaptive rules on live
// backends react to real traffic but give up byte-reproducibility — exactly
// the guarantee split live runs already have everywhere else.
type liveHistory struct {
	n         int
	delivered atomic.Int64
	sent      []atomic.Int64

	// Ranking cache, recomputed at most once per liveRerankEvery recorded
	// frames. Guarded by mu; readers are the delay rules, which tolerate a
	// slightly stale ranking (any committed prefix is a valid observation).
	mu       sync.Mutex
	rankedAt int64
	hot      []node.ID
	rank     []int32
}

var _ sim.HistoryView = (*liveHistory)(nil)

// newLiveHistory returns an empty history for an n-node cluster with the
// identity ranking.
func newLiveHistory(n int) *liveHistory {
	h := &liveHistory{
		n:    n,
		sent: make([]atomic.Int64, n),
		hot:  make([]node.ID, n),
		rank: make([]int32, n),
	}
	sim.RankHotSenders(make([]int64, n), h.hot, h.rank)
	return h
}

// record notes one frame forwarded by from.
func (h *liveHistory) record(from node.ID) {
	h.sent[from].Add(1)
	h.delivered.Add(1)
}

// Delivered implements sim.HistoryView.
func (h *liveHistory) Delivered() int64 { return h.delivered.Load() }

// HotRank implements sim.HistoryView.
func (h *liveHistory) HotRank(id node.ID) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.refreshLocked()
	return int(h.rank[id])
}

// HotSender implements sim.HistoryView.
func (h *liveHistory) HotSender(rank int) node.ID {
	if rank < 0 {
		rank = 0
	}
	if rank >= h.n {
		rank = h.n - 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.refreshLocked()
	return h.hot[rank]
}

// refreshLocked re-ranks from a snapshot of the sent counts on the first
// recorded frame and then once per liveRerankEvery more.
func (h *liveHistory) refreshLocked() {
	d := h.delivered.Load()
	if d == 0 || d-h.rankedAt < liveRerankEvery && h.rankedAt != 0 {
		return
	}
	h.rankedAt = d
	counts := make([]int64, h.n)
	for i := range counts {
		counts[i] = h.sent[i].Load()
	}
	sim.RankHotSenders(counts, h.hot, h.rank)
}
