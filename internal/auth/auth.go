// Package auth implements the paper's authenticated channels (§VI-C):
// pairwise HMAC-SHA256 message authentication codes over shared symmetric
// keys. Every frame on the live transports carries a MAC; the simulator
// accounts for the same 32-byte overhead and per-message hash cost.
//
// The HMAC is built from SHA-256 states, restored as crypto/hmac's own Reset
// restores them: a channel key is the two states saved after its ipad and
// opad blocks, and one Auth's two digests serve every channel, where each
// hmac.New allocated two digests, pads and a sum. A live cluster re-keys
// every node every trial; keys are derived lazily, on a channel's first use.
package auth

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
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

// digest is a SHA-256 hash whose state can be saved and restored.
type digest interface {
	hash.Hash
	encoding.BinaryAppender
	encoding.BinaryUnmarshaler
}

// key is an HMAC key as the SHA-256 states saved after its ipad and opad
// blocks, 108 bytes each; a zero key is not derived yet (no saved state is).
type key [2][108]byte

// Auth holds one node's pairwise channel keys. Its mutex makes it safe under
// concurrent sealers (a delay wrapper's timer goroutines seal alongside the
// driver) and guards everything after it.
type Auth struct {
	self    node.ID
	epoch   uint64
	mu      sync.Mutex
	master  key
	peers   []key // by peer, derived on first use
	in, out digest
	block   [64]byte      // a key's padded block
	ids     [16]byte      // sender id or node pair; a stack buffer would escape through the digest
	sum     [MACSize]byte // a derived key, or the MAC Open compares against
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
	a := &Auth{self: self, peers: make([]key, n), in: sha256.New().(digest), out: sha256.New().(digest)}
	a.derive(&a.master, master)
	a.epoch = binary.LittleEndian.Uint64(a.mac(&a.master, a.sum[:0], a.ids[:copy(a.ids[:], "epoch")], nil))
	return a, nil
}

// derive sets k to HMAC key secret, which crypto/hmac first hashes if it is
// longer than a block. Caller holds a.mu, or owns a.
func (a *Auth) derive(k *key, secret []byte) {
	if len(secret) > len(a.block) {
		h := sha256.Sum256(secret)
		secret = h[:]
	}
	a.block = [64]byte{}
	copy(a.block[:], secret)
	for i, h := range [2]digest{a.in, a.out} { // the ipad block, then the opad block
		for j := range a.block {
			a.block[j] ^= [2]byte{0x36, 0x36 ^ 0x5c}[i]
		}
		h.Reset()
		h.Write(a.block[:])
		h.AppendBinary(k[i][:0])
	}
}

// mac appends HMAC(k, prefix || msg) to dst. Caller holds a.mu, or owns a.
func (a *Auth) mac(k *key, dst, prefix, msg []byte) []byte {
	a.in.UnmarshalBinary(k[0][:])
	a.in.Write(prefix)
	a.in.Write(msg)
	n := len(dst)
	dst = a.in.Sum(dst)
	a.out.UnmarshalBinary(k[1][:])
	a.out.Write(dst[n:])
	return a.out.Sum(dst[:n])
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
	if uint(peer) >= uint(len(a.peers)) {
		return append(dst, make([]byte, MACSize)...)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tag(peer, a.self, dst, frame)
}

// Open verifies and strips the MAC of a frame received from peer. The
// returned slice aliases the input.
func (a *Auth) Open(peer node.ID, sealed []byte) ([]byte, error) {
	if len(sealed) < MACSize || uint(peer) >= uint(len(a.peers)) {
		return nil, ErrBadMAC
	}
	frame, tag := sealed[:len(sealed)-MACSize], sealed[len(sealed)-MACSize:]
	a.mu.Lock()
	defer a.mu.Unlock()
	if !hmac.Equal(tag, a.tag(peer, peer, a.sum[:0], frame)) {
		return nil, ErrBadMAC
	}
	return frame, nil
}

// tag appends HMAC(key(self, peer), sender || frame) to dst, deriving the
// channel key, HMAC(master, lo || hi) for the ordered pair, on its first
// use. Caller holds a.mu.
func (a *Auth) tag(peer, sender node.ID, dst, frame []byte) []byte {
	k := &a.peers[peer]
	if k[0][0] == 0 {
		binary.LittleEndian.PutUint64(a.ids[0:], uint64(min(a.self, peer)))
		binary.LittleEndian.PutUint64(a.ids[8:], uint64(max(a.self, peer)))
		a.derive(k, a.mac(&a.master, a.sum[:0], a.ids[:], nil))
	}
	binary.LittleEndian.PutUint64(a.ids[:8], uint64(sender))
	return a.mac(k, dst, a.ids[:8], frame)
}
