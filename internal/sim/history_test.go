package sim

import (
	"testing"
	"time"

	"delphi/internal/node"
)

// TestHistoryCommitGrid pins the committed-prefix semantics: deliveries are
// invisible until a window's start crosses an epoch boundary, and the
// deliveries of that window are not in the prefix committed before it.
func TestHistoryCommitGrid(t *testing.T) {
	h := NewHistory(4, 10*time.Millisecond)
	if h.Delivered() != 0 || h.Commits() != 0 {
		t.Fatalf("fresh history not empty: delivered=%d commits=%d", h.Delivered(), h.Commits())
	}
	sh := &shard{histSent: make([]int64, 4)}
	r := &Runner{history: h, width: time.Millisecond, shards: []*shard{sh}}
	// step delivers one message from `from` at `at`, in its 1 ms window: the
	// barrier before that window commits first.
	step := func(at time.Duration, from node.ID) {
		r.commitHistory(int64(at / r.width))
		sh.histDelivered++
		sh.histSent[from]++
	}
	step(2*time.Millisecond, 0)
	step(5*time.Millisecond, 0)
	if h.Delivered() != 0 {
		t.Fatalf("pre-epoch deliveries leaked into the committed prefix: %d", h.Delivered())
	}
	// Crossing 10 ms commits the two pending deliveries but not this one.
	step(11*time.Millisecond, 1)
	if h.Delivered() != 2 || h.Commits() != 1 {
		t.Fatalf("after first commit: delivered=%d commits=%d, want 2/1", h.Delivered(), h.Commits())
	}
	if h.SentMsgs(0) != 2 || h.SentMsgs(1) != 0 {
		t.Fatalf("committed sent counts wrong: node0=%d node1=%d", h.SentMsgs(0), h.SentMsgs(1))
	}
	// The grid moves past the observed time: 11 ms commits up to the next
	// boundary at 20 ms, so 15 ms does not commit again.
	step(15*time.Millisecond, 1)
	if h.Commits() != 1 {
		t.Fatalf("mid-epoch observation committed: commits=%d", h.Commits())
	}
	step(20*time.Millisecond, 2)
	if h.Commits() != 2 || h.Delivered() != 4 {
		t.Fatalf("after second commit: delivered=%d commits=%d, want 4/2", h.Delivered(), h.Commits())
	}
}

// TestHistoryRanking pins the hot-sender order: committed sent count
// descending, ties broken by lower ID, identity before the first commit.
func TestHistoryRanking(t *testing.T) {
	h := NewHistory(4, time.Millisecond)
	for i := 0; i < 4; i++ {
		if h.HotRank(node.ID(i)) != i || h.HotSender(i) != node.ID(i) {
			t.Fatalf("initial ranking is not the identity at %d", i)
		}
	}
	// Node 2 sends 3, node 0 sends 1, nodes 1 and 3 send none (tie -> 1
	// before 3).
	h.sent[2], h.sent[0] = 3, 1
	h.commit(time.Millisecond)
	want := []node.ID{2, 0, 1, 3}
	for r, id := range want {
		if h.HotSender(r) != id {
			t.Fatalf("rank %d: got node %d, want %d", r, h.HotSender(r), id)
		}
		if h.HotRank(id) != r {
			t.Fatalf("node %d: got rank %d, want %d", id, h.HotRank(id), r)
		}
	}
	// Out-of-range ranks clamp instead of panicking.
	if h.HotSender(-3) != want[0] || h.HotSender(99) != want[3] {
		t.Fatalf("rank clamping broken: %d %d", h.HotSender(-3), h.HotSender(99))
	}
}

// TestHistoryValidation pins the constructor's argument checks.
func TestHistoryValidation(t *testing.T) {
	for _, tc := range []struct {
		n     int
		epoch time.Duration
	}{{0, time.Millisecond}, {-1, time.Millisecond}, {4, 0}, {4, -time.Second}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistory(%d, %v) did not panic", tc.n, tc.epoch)
				}
			}()
			NewHistory(tc.n, tc.epoch)
		}()
	}
}
