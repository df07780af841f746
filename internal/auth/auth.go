// Package auth implements the paper's authenticated channels (§VI-C):
// pairwise HMAC-SHA256 message authentication codes over shared symmetric
// keys. Every frame on the live transports carries a MAC; the simulator
// accounts for the same 32-byte overhead and per-message hash cost.
package auth

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"

	"delphi/internal/node"
)

// MACSize is the HMAC-SHA256 tag length in bytes.
const MACSize = sha256.Size

// ErrBadMAC reports a frame whose MAC failed verification.
var ErrBadMAC = errors.New("auth: MAC verification failed")

// peerState caches one channel's keyed HMAC machinery. Keying an HMAC costs
// two SHA-256 block compressions (ipad and opad) plus two allocations —
// after frame batching that key schedule dominated seal/open cost, since it
// was paid on every call. The cached hash is keyed once and Reset between
// uses; the standard library restores the precomputed ipad/opad states on
// Reset instead of re-deriving them. sum is the verify-side scratch, so
// Open never allocates either. The mutex makes each channel safe under
// concurrent sealers (a delay wrapper's timer goroutines can seal alongside
// the driver); distinct peers never contend.
type peerState struct {
	mu  sync.Mutex
	h   hash.Hash
	sum [MACSize]byte
	snd [8]byte // sender-id prefix scratch; a stack buffer would escape through the hash.Hash interface
}

// Auth holds one node's pairwise channel keys.
type Auth struct {
	self  node.ID
	keys  [][]byte
	peers []peerState
	epoch uint64
}

// New derives pairwise keys for node self in an n-node system from a master
// secret. Both endpoints of a channel derive the same key (the pair is
// ordered canonically), standing in for a channel-key agreement during
// system setup.
func New(self node.ID, n int, master []byte) (*Auth, error) {
	if int(self) < 0 || int(self) >= n {
		return nil, fmt.Errorf("auth: self %v out of range for n=%d", self, n)
	}
	if len(master) == 0 {
		return nil, errors.New("auth: empty master secret")
	}
	a := &Auth{self: self, keys: make([][]byte, n), peers: make([]peerState, n)}
	mac := hmac.New(sha256.New, master)
	for peer := 0; peer < n; peer++ {
		lo, hi := int(self), peer
		if lo > hi {
			lo, hi = hi, lo
		}
		mac.Reset()
		var buf [16]byte
		binary.LittleEndian.PutUint64(buf[0:], uint64(lo))
		binary.LittleEndian.PutUint64(buf[8:], uint64(hi))
		mac.Write(buf[:])
		a.keys[peer] = mac.Sum(nil)
	}
	mac.Reset()
	mac.Write([]byte("epoch"))
	a.epoch = binary.LittleEndian.Uint64(mac.Sum(nil))
	return a, nil
}

// Epoch returns a short public identifier of the master secret, the same at
// every node keyed from it. Persistent transports carry it in plaintext so a
// receiver can tell a straggler of an earlier run (another master) from a
// forgery without trying the MAC; it authenticates nothing.
func (a *Auth) Epoch() uint64 { return a.epoch }

// Seal appends the MAC of frame under the channel key shared with peer.
// The sender id is bound into the MAC so a shared pairwise key cannot be
// replayed in the reverse direction.
func (a *Auth) Seal(peer node.ID, frame []byte) []byte {
	return a.AppendSeal(peer, make([]byte, 0, len(frame)+MACSize), frame)
}

// AppendSeal appends frame followed by its MAC to dst and returns the
// extended slice: Seal without the allocation, for callers sealing into a
// reused buffer (the transports' per-connection write scratch). frame and
// dst must not overlap.
func (a *Auth) AppendSeal(peer node.ID, dst, frame []byte) []byte {
	dst = append(dst, frame...)
	return a.appendTag(peer, a.self, dst, frame)
}

// Open verifies and strips the MAC of a frame received from peer. The
// returned slice aliases the input.
func (a *Auth) Open(peer node.ID, sealed []byte) ([]byte, error) {
	if len(sealed) < MACSize {
		return nil, ErrBadMAC
	}
	frame := sealed[:len(sealed)-MACSize]
	tag := sealed[len(sealed)-MACSize:]
	if !a.check(peer, peer, frame, tag) {
		return nil, ErrBadMAC
	}
	return frame, nil
}

// tag computes HMAC(key(self,peer), sender || frame).
func (a *Auth) tag(peer, sender node.ID, frame []byte) []byte {
	return a.appendTag(peer, sender, nil, frame)
}

// appendTag appends HMAC(key(self,peer), sender || frame) to dst.
func (a *Auth) appendTag(peer, sender node.ID, dst, frame []byte) []byte {
	if int(peer) < 0 || int(peer) >= len(a.keys) {
		return append(dst, make([]byte, MACSize)...)
	}
	ps := &a.peers[peer]
	ps.mu.Lock()
	dst = ps.sumInto(a.keys[peer], sender, dst, frame)
	ps.mu.Unlock()
	return dst
}

// check reports whether tag is the MAC of sender || frame on the peer
// channel, comparing in constant time. The reference MAC lands in the
// channel's scratch, so verification is allocation-free.
func (a *Auth) check(peer, sender node.ID, frame, tag []byte) bool {
	if int(peer) < 0 || int(peer) >= len(a.keys) {
		return false
	}
	ps := &a.peers[peer]
	ps.mu.Lock()
	want := ps.sumInto(a.keys[peer], sender, ps.sum[:0], frame)
	ok := hmac.Equal(tag, want)
	ps.mu.Unlock()
	return ok
}

// sumInto appends HMAC(key, sender || frame) to dst using the channel's
// cached keyed state. Caller holds ps.mu.
func (ps *peerState) sumInto(key []byte, sender node.ID, dst, frame []byte) []byte {
	if ps.h == nil {
		ps.h = hmac.New(sha256.New, key)
	} else {
		ps.h.Reset()
	}
	binary.LittleEndian.PutUint64(ps.snd[:], uint64(sender))
	ps.h.Write(ps.snd[:])
	ps.h.Write(frame)
	return ps.h.Sum(dst)
}
