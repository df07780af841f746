// Package auth implements the paper's authenticated channels (§VI-C):
// pairwise HMAC-SHA256 message authentication codes over shared symmetric
// keys. Every frame on the live transports carries a MAC; the simulator
// accounts for the same 32-byte overhead and per-message hash cost.
//
// The HMAC is built from SHA-256 states, restored as crypto/hmac's own Reset
// restores them: a channel key is the two chaining values saved after its
// ipad and opad blocks, 64 bytes, and one Auth's digest serves every channel.
// A live cluster re-keys every node every trial; keys are derived lazily.
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

// key is an HMAC key as the SHA-256 chaining values after its ipad and opad
// blocks. Any byte of them may be zero, so derived is a flag of its own.
type key struct {
	cv      [2][sha256.Size]byte
	derived bool
}

// Auth holds one node's pairwise channel keys. Its mutex makes it safe under
// concurrent sealers (a delay wrapper's timer goroutines seal alongside the
// driver) and guards everything after it.
type Auth struct {
	self   node.ID
	epoch  uint64
	mu     sync.Mutex
	master key
	peers  []key         // by peer, derived on first use
	h      hash.Hash     // SHA-256, restored from state (an encoding.BinaryUnmarshaler)
	block  [64]byte      // a key's padded block
	state  [108]byte     // h marshalled after one block: all but [4:36], its chaining value, is fixed
	ids    [16]byte      // sender id or node pair; a stack buffer would escape through the digest
	sum    [MACSize]byte // a derived key, or the MAC Open compares against
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
	a := &Auth{self: self, peers: make([]key, n), h: sha256.New()}
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
	for i := range k.cv { // the ipad block, then the opad block
		for j := range a.block {
			a.block[j] ^= [2]byte{0x36, 0x36 ^ 0x5c}[i]
		}
		a.h.Reset()
		a.h.Write(a.block[:])
		a.h.(encoding.BinaryAppender).AppendBinary(a.state[:0])
		copy(k.cv[i][:], a.state[4:])
	}
	k.derived = true
}

// mac appends HMAC(k, prefix || msg) to dst. Caller holds a.mu, or owns a.
func (a *Auth) mac(k *key, dst, prefix, msg []byte) []byte {
	n := len(dst)
	for i := range k.cv { // the inner hash, then the outer one of its sum
		copy(a.state[4:], k.cv[i][:])
		a.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(a.state[:])
		a.h.Write(prefix)
		a.h.Write(msg)
		dst = a.h.Sum(dst[:n])
		prefix, msg = dst[n:], nil
	}
	return dst
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
	if !k.derived {
		binary.LittleEndian.PutUint64(a.ids[0:], uint64(min(a.self, peer)))
		binary.LittleEndian.PutUint64(a.ids[8:], uint64(max(a.self, peer)))
		a.derive(k, a.mac(&a.master, a.sum[:0], a.ids[:], nil))
	}
	binary.LittleEndian.PutUint64(a.ids[:8], uint64(sender))
	return a.mac(k, dst, a.ids[:8], frame)
}
