package coin_test

import (
	"testing"

	"delphi/internal/coin"
	"delphi/internal/node"
)

// fakeEnv collects broadcasts and compute charges.
type fakeEnv struct {
	self    node.ID
	n, f    int
	sent    []node.Message
	charged node.ComputeCost
}

func (e *fakeEnv) Self() node.ID                  { return e.self }
func (e *fakeEnv) N() int                         { return e.n }
func (e *fakeEnv) F() int                         { return e.f }
func (e *fakeEnv) Send(_ node.ID, m node.Message) { e.sent = append(e.sent, m) }
func (e *fakeEnv) Broadcast(m node.Message)       { e.sent = append(e.sent, m) }
func (e *fakeEnv) Output(any)                     {}
func (e *fakeEnv) Halt()                          {}
func (e *fakeEnv) ChargeCompute(c node.ComputeCost) {
	e.charged = e.charged.Add(c)
}

func TestRevealAfterThreshold(t *testing.T) {
	cfg := node.Config{N: 4, F: 1}
	revealed := map[uint64]uint64{}
	env := &fakeEnv{self: 0, n: 4, f: 1}
	src := coin.NewSource(cfg, env, 7, 0, 8, func(id, v uint64) { revealed[id] = v })

	src.Request(5)
	if len(env.sent) != 1 {
		t.Fatalf("request broadcast %d messages, want 1", len(env.sent))
	}
	share := env.sent[0].(*coin.Share)

	// Deliver our own share back: 1 of f+1=2.
	if !src.Handle(0, share) {
		t.Fatal("share not recognised")
	}
	if len(revealed) != 0 {
		t.Fatal("revealed before threshold")
	}
	// A forged share from node 2 must not count.
	forged := &coin.Share{Coin: 5, Blob: make([]byte, coin.ShareBytes)}
	src.Handle(2, forged)
	if len(revealed) != 0 {
		t.Fatal("forged share counted toward threshold")
	}
	// A genuine share from node 1 (derive via a peer source).
	env1 := &fakeEnv{self: 1, n: 4, f: 1}
	src1 := coin.NewSource(cfg, env1, 7, 0, 8, func(uint64, uint64) {})
	src1.Request(5)
	peerShare := env1.sent[0].(*coin.Share)
	src.Handle(1, peerShare)
	if v, ok := revealed[5]; !ok {
		t.Fatal("not revealed after f+1 genuine shares")
	} else if v != src.Value(5) {
		t.Fatalf("revealed %d != Value %d", v, src.Value(5))
	}
	if v, ok := src.TryValue(5); !ok || v != src.Value(5) {
		t.Fatal("TryValue disagrees after reveal")
	}
	if _, ok := src.TryValue(6); ok {
		t.Fatal("TryValue claims unrevealed coin")
	}
	// Pairing-class compute was charged for signing and verifications.
	if env.charged.Pairings < 3 {
		t.Errorf("pairings charged = %d, want >= 3", env.charged.Pairings)
	}
	// Duplicate shares are idempotent.
	src.Handle(1, peerShare)
	if len(revealed) != 1 {
		t.Error("duplicate share re-revealed")
	}
}

func TestDifferentSeedsDifferentCoins(t *testing.T) {
	cfg := node.Config{N: 4, F: 1}
	a := coin.NewSource(cfg, &fakeEnv{n: 4, f: 1}, 1, 0, 0, func(uint64, uint64) {})
	b := coin.NewSource(cfg, &fakeEnv{n: 4, f: 1}, 2, 0, 0, func(uint64, uint64) {})
	same := 0
	for c := uint64(0); c < 64; c++ {
		if a.Value(c)&1 == b.Value(c)&1 {
			same++
		}
	}
	if same == 64 {
		t.Error("different seeds produced identical coin streams")
	}
}
