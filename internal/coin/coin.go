// Package coin implements the common-coin substrate used by the randomized
// baseline protocols (the binary agreements inside the FIN-style ACS).
//
// The paper's baselines use threshold-BLS coins, whose defining costs are
// (a) an extra all-to-all exchange of κ-bit shares per coin and (b) one
// pairing-class verification per received share — roughly 1000x a symmetric
// operation. We reproduce exactly that message pattern and charge the pairing
// cost through node.Env.ChargeCompute, but derive the coin value itself
// from a deterministic hash of a shared seed (standing in for the threshold
// public key setup, which this reproduction leaves out: the baselines are
// here for their message and compute cost, not their cryptography). The coin
// is perfectly common and, to the protocols above it, indistinguishable from a
// real threshold coin.
package coin

import (
	"crypto/sha256"
	"encoding/binary"

	"delphi/internal/node"
	"delphi/internal/wire"
)

// ShareBytes is the wire size of one coin share (BLS48-class signature).
const ShareBytes = 48

// Share is a node's contribution to one coin.
type Share struct {
	// Coin identifies the coin instance (e.g. hash of ABA id and round).
	Coin uint64
	// Blob carries the simulated threshold share.
	Blob []byte
}

// Type implements node.Message.
func (m *Share) Type() uint8 { return wire.TypeCoinShare }

// WireSize implements node.Message.
func (m *Share) WireSize() int { return 1 + 8 + wire.UVarintSize(uint64(len(m.Blob))) + len(m.Blob) }

// AppendBinary implements node.Message.
func (m *Share) AppendBinary(b []byte) ([]byte, error) {
	w := wire.Writer(b)
	w.U64(m.Coin)
	w.BytesLP(m.Blob)
	return w, nil
}

// DecodeShare decodes a Share body.
func DecodeShare(body []byte, a *wire.Arena) (node.Message, error) {
	r := wire.NewReader(body)
	m := wire.New(a, Share{Coin: r.U64(), Blob: a.Copy(r.BytesLP())})
	return m, r.Err()
}

// Register installs the package's decoder.
func Register(reg *wire.Registry) error {
	return reg.Register(wire.TypeCoinShare, DecodeShare)
}

// Source produces common coins for one node. All nodes constructed with the
// same seed observe identical coin values once enough shares arrive.
type Source struct {
	cfg          node.Config
	env          node.Env
	seed         uint64
	reveal       func(coin uint64, value uint64)
	first, count uint64 // it serves the coins [first, first+count)
	// coins holds a state per coin requested or with a genuine share, in
	// first-use order, the first four in inline: FIN's engines use 1–3.
	coins  []state
	inline [4]state
	sent   *wire.Arena // what it sends is carved from, lent by env (see wire.Lender)
}

// state is one coin's: this node's share sent, and the senders of the
// genuine shares received and their count; the coin is revealed at t+1.
type state struct {
	coin      uint64
	requested bool
	shares    node.Set
	count     int
}

// NewSource creates a coin source serving the coins [first, first+count).
// reveal fires once per coin, after this node has received t+1 shares (its
// own included). A share for any other coin is dropped unverified.
func NewSource(cfg node.Config, env node.Env, seed, first uint64, count int, reveal func(coin, value uint64)) *Source {
	s := &Source{cfg: cfg, env: env, seed: seed, reveal: reveal, first: first, count: uint64(count), sent: wire.SentArena(env)}
	s.coins = s.inline[:0]
	return s
}

// state returns coin's state, or makes it if add is set and the coin served.
func (s *Source) state(coin uint64, add bool) *state {
	for i := range s.coins {
		if s.coins[i].coin == coin {
			return &s.coins[i]
		}
	}
	if !add || coin-s.first >= s.count {
		return nil
	}
	s.coins = append(s.coins, state{coin: coin, shares: make(node.Set, node.SetWords(s.cfg.N))})
	return &s.coins[len(s.coins)-1]
}

// Request broadcasts this node's share for the coin (idempotent). The
// signing cost of the share is charged to the environment.
func (s *Source) Request(coin uint64) {
	c := s.state(coin, true)
	if c == nil || c.requested {
		return
	}
	c.requested = true
	s.env.ChargeCompute(node.ComputeCost{Pairings: 1}) // threshold-share signing
	blob := s.shareBlob(coin, s.env.Self())
	s.env.Broadcast(wire.New(s.sent, Share{Coin: coin, Blob: s.sent.Copy(blob[:])}))
}

// Handle processes a coin share; it returns true if the message was a coin
// share.
func (s *Source) Handle(from node.ID, m node.Message) bool {
	sh, ok := m.(*Share)
	if !ok {
		return false
	}
	if sh.Coin-s.first >= s.count || uint(from) >= uint(s.cfg.N) {
		return true
	}
	// Verify the share (pairing-class cost), discard forgeries.
	s.env.ChargeCompute(node.ComputeCost{Pairings: 1})
	if blob := s.shareBlob(sh.Coin, from); string(sh.Blob) != string(blob[:]) {
		return true
	}
	if c := s.state(sh.Coin, true); c.shares.Add(from) {
		if c.count++; c.count == s.cfg.F+1 {
			s.reveal(sh.Coin, s.Value(sh.Coin))
		}
	}
	return true
}

// TryValue returns the coin's value if this node has already collected
// enough shares to reveal it.
func (s *Source) TryValue(coin uint64) (uint64, bool) {
	if c := s.state(coin, false); c == nil || c.count <= s.cfg.F {
		return 0, false
	}
	return s.Value(coin), true
}

// Value returns the coin's value. It is identical at every node; protocols
// must only consult it after the reveal callback (or they lose the
// unpredictability the real scheme provides).
func (s *Source) Value(coin uint64) uint64 {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:], s.seed)
	binary.LittleEndian.PutUint64(buf[8:], coin)
	h := sha256.Sum256(buf[:])
	return binary.LittleEndian.Uint64(h[:8])
}

// shareBlob derives node id's simulated share for a coin.
func (s *Source) shareBlob(coin uint64, id node.ID) (out [ShareBytes]byte) {
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], s.seed)
	binary.LittleEndian.PutUint64(buf[8:], coin)
	binary.LittleEndian.PutUint64(buf[16:], uint64(id))
	h := sha256.Sum256(buf[:])
	copy(out[:], h[:])
	copy(out[32:], h[:16])
	return out
}
