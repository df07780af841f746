package coin_test

import (
	"slices"
	"testing"

	"delphi/internal/coin"
	"delphi/internal/node"
)

// TestDeliverOutOfRange: a share for a coin the source does not serve, or
// from a sender outside [0, n), is dropped unverified with no panic, no
// allocation, no charge and no reveal; Request on such a coin sends
// nothing; and a repeated share counts once.
func TestDeliverOutOfRange(t *testing.T) {
	const n, f, first, count = 7, 2, 100, 8
	cfg := node.Config{N: n, F: f}
	// genuine returns from's share for c, as from's own source sends it.
	genuine := func(from node.ID, c uint64) *coin.Share {
		env := &fakeEnv{self: from, n: n, f: f}
		coin.NewSource(cfg, env, 3, c, 1, nil).Request(c)
		return env.sent[0].(*coin.Share)
	}
	cases := []struct {
		name string
		msg  func(i int) (node.ID, node.Message)
	}{
		{"coin past range", func(i int) (node.ID, node.Message) { return 1, genuine(1, first+count+uint64(i)) }},
		{"coin before range", func(i int) (node.ID, node.Message) { return 1, genuine(1, first-1-uint64(i)) }},
		{"share from n+i", func(i int) (node.ID, node.Message) { return node.ID(n + i), genuine(node.ID(n+i), first) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := &fakeEnv{n: n, f: f}
			src := coin.NewSource(cfg, env, 3, first, count, func(uint64, uint64) { t.Error("revealed") })
			const runs = 100
			froms := make([]node.ID, runs+1) // AllocsPerRun makes one warm-up call
			msgs := make([]node.Message, runs+1)
			for i := range msgs {
				froms[i], msgs[i] = c.msg(i)
			}
			i := 0
			if a := testing.AllocsPerRun(runs, func() { src.Handle(froms[i], msgs[i]); i++ }); a != 0 {
				t.Errorf("%.1f allocations per dropped share", a)
			}
			if len(env.sent) != 0 || env.charged != (node.ComputeCost{}) {
				t.Errorf("a dropped share sent %d messages and charged %+v", len(env.sent), env.charged)
			}
		})
	}
	t.Run("request outside the range", func(t *testing.T) {
		env := &fakeEnv{n: n, f: f}
		src := coin.NewSource(cfg, env, 3, first, count, nil)
		src.Request(first + count)
		src.Request(first - 1)
		if len(env.sent) != 0 {
			t.Errorf("Request outside the range sent %d messages", len(env.sent))
		}
		if _, ok := src.TryValue(first + count); ok {
			t.Error("TryValue revealed a coin outside the range")
		}
	})
	t.Run("duplicate share counts once", func(t *testing.T) {
		revealed := 0
		src := coin.NewSource(cfg, &fakeEnv{n: n, f: f}, 3, first, count, func(uint64, uint64) { revealed++ })
		share := genuine(4, first+1)
		for i := 0; i < n; i++ {
			src.Handle(4, share)
		}
		src.Handle(5, genuine(5, first+1))
		if revealed != 0 {
			t.Fatalf("t distinct shares and repeats revealed the coin")
		}
		src.Handle(6, genuine(6, first+1))
		if revealed != 1 {
			t.Fatalf("t+1 distinct shares revealed the coin %d times, want 1", revealed)
		}
	})
}

var sink *coin.Source

// TestSourceSizedByUse: a source makes a coin's state on the coin's first
// request or genuine share, so NewSource serving 64 coins allocates the
// Source alone, and a genuine share for the last of them costs what it did
// when every state was made up front: its sender set, one allocation. States
// past the four held inline reveal as the first ones do, in any order.
func TestSourceSizedByUse(t *testing.T) {
	const n, f, first, count, runs = 16, 5, 100, 64, 100
	cfg := node.Config{N: n, F: f}
	if a := testing.AllocsPerRun(runs, func() { sink = coin.NewSource(cfg, nil, 3, first, count, nil) }); a != 1 {
		t.Errorf("NewSource serving %d coins made %.0f allocations, want 1", count, a)
	}
	// share returns from's genuine share for c.
	share := func(from node.ID, c uint64) node.Message {
		env := &fakeEnv{self: from, n: n, f: f}
		coin.NewSource(cfg, env, 3, c, 1, nil).Request(c)
		return env.sent[0]
	}
	last := share(4, first+count-1)
	srcs := make([]*coin.Source, runs+1) // AllocsPerRun makes one warm-up call
	for i := range srcs {
		srcs[i] = coin.NewSource(cfg, &fakeEnv{n: n, f: f}, 3, first, count, nil)
	}
	i := 0
	if a := testing.AllocsPerRun(runs, func() { srcs[i].Handle(4, last); i++ }); a > 1 {
		t.Errorf("a genuine share for the last coin made %.0f allocations, want ≤ 1", a)
	}

	revealed := map[uint64]int{}
	var src *coin.Source
	src = coin.NewSource(cfg, &fakeEnv{n: n, f: f}, 3, first, count, func(c, v uint64) {
		if v != src.Value(c) {
			t.Errorf("coin %d revealed %d, want %d", c, v, src.Value(c))
		}
		revealed[c]++
	})
	coins := []uint64{first + 63, first + 9, first, first + 5, first + 1, first + 40}
	for _, c := range coins {
		src.Request(c)
	}
	for from := range node.ID(f + 1) {
		for _, c := range slices.Backward(coins) {
			src.Handle(from, share(from, c))
		}
	}
	for _, c := range coins {
		if v, ok := src.TryValue(c); revealed[c] != 1 || !ok || v != src.Value(c) {
			t.Errorf("coin %d: revealed %d times, TryValue %d, %v", c, revealed[c], v, ok)
		}
	}
}
