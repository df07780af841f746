// Package node defines the core abstractions shared by every protocol in
// this repository: node identities, protocol messages, and the environment
// through which an event-driven protocol state machine interacts with the
// outside world.
//
// Protocols (BinAA, Delphi, RBC, ABA, ACS, the AAA baselines, DORA) are all
// implemented as Process state machines. A Process never spawns goroutines,
// never sleeps, and never touches a clock; it only reacts to Init and
// Deliver calls and emits messages/outputs through its Env. This makes the
// same protocol code runnable under the deterministic virtual-time simulator
// (internal/sim) and the live goroutine runtime (internal/runtime).
package node

import (
	"fmt"

	"delphi/internal/obs"
)

// ID identifies a node within a protocol instance. IDs are dense integers
// in [0, n).
type ID int

// String implements fmt.Stringer.
func (id ID) String() string { return fmt.Sprintf("node-%d", id) }

// Message is a protocol message. Concrete message types live in the protocol
// packages and must support binary encoding (for the live transports) and
// report their size (for bandwidth accounting in the simulator).
type Message interface {
	// Type returns the globally unique wire-type byte of this message.
	Type() uint8
	// WireSize returns the exact number of bytes the message occupies on
	// the wire (excluding transport framing and MAC).
	WireSize() int
	// AppendBinary appends the message body (without the type byte) to b
	// and returns the extended slice, as encoding.BinaryAppender does. It
	// only appends: b's bytes are left as they are, and encoding into a b
	// with room allocates nothing.
	AppendBinary(b []byte) ([]byte, error)
}

// Env is the environment handed to a Process. All interaction with the
// network and the caller flows through it.
type Env interface {
	// Self returns the ID of the node running the process.
	Self() ID
	// N returns the total number of nodes.
	N() int
	// F returns the maximum number of Byzantine faults tolerated
	// (the paper's t, with n >= 3t+1 unless a protocol states otherwise).
	F() int
	// Send transmits m to a single peer. Sending to Self() is allowed and
	// is delivered like any other message. The environment may keep m until
	// the run ends and size it once, at the call: a sent message must not be
	// mutated afterwards, nor its WireSize change (the same holds for
	// Broadcast, and receivers never mutate a delivered message either). It
	// may lend the node an arena to carve m from (wire.SentArena), which it
	// resets as its next run starts: nothing that outlives a run points into m.
	Send(to ID, m Message)
	// Broadcast transmits m to every node, including the sender itself.
	Broadcast(m Message)
	// Output reports a protocol output to the caller. A process may output
	// more than once (e.g. sub-protocol results); the final output of the
	// top-level protocol is by convention the last Output call before Halt.
	Output(v any)
	// Halt tells the environment the process has terminated. After Halt,
	// further Deliver calls are not guaranteed.
	Halt()
	// ChargeCompute charges the node's CPU with an abstract compute cost.
	// The simulator translates the cost into virtual time via its cost
	// model; the live runtime ignores it (real CPU time is already spent).
	ChargeCompute(c ComputeCost)
}

// Tracing is the optional capability an Env may implement to expose a
// per-node trace track. Protocols never depend on it directly; they resolve
// it once at Init via TrackOf and keep the (possibly nil) handle.
type Tracing interface {
	// Track returns this node's trace track, or nil when observability is
	// disabled.
	Track() *obs.Track
}

// TrackOf returns env's trace track when the environment implements
// Tracing, else nil. All *obs.Track methods are nil-safe no-ops, so callers
// store the result and emit unconditionally.
func TrackOf(env Env) *obs.Track {
	if t, ok := env.(Tracing); ok {
		return t.Track()
	}
	return nil
}

// Process is an event-driven protocol state machine.
type Process interface {
	// Init is called exactly once before any Deliver. The process should
	// record env and send its first messages.
	Init(env Env)
	// Deliver hands the process a message from a peer. The transport layer
	// guarantees authenticity (from is correct) but nothing else: messages
	// may be arbitrarily delayed, reordered, or duplicated by the
	// adversary. They are never dropped.
	//
	// The message is shared: the simulator hands one pointer to every
	// receiver of a broadcast. A handler never mutates a delivered message.
	// It may hold the message and its slices, read-only, until its run ends,
	// and no longer: a live driver carves messages from memory it reuses in
	// its slot's next run. So an Output never aliases a delivered message;
	// what outlives the run, the process copies.
	Deliver(from ID, m Message)
}

// ComputeCost is an abstract measure of CPU work, used by the simulator's
// cost model to account for the computational weight of crypto operations.
type ComputeCost struct {
	// Hashes counts symmetric-crypto operations (SHA-256 / HMAC).
	Hashes int
	// SigVerifies counts public-key signature verifications (ed25519-class).
	SigVerifies int
	// SigSigns counts public-key signing operations.
	SigSigns int
	// Pairings counts pairing-equivalent operations (BLS threshold-coin
	// share verification class; ~1000x a symmetric op per the paper).
	Pairings int
	// Bytes counts per-byte processing work (serialization, MAC input).
	Bytes int
}

// Add returns the sum of two compute costs.
func (c ComputeCost) Add(o ComputeCost) ComputeCost {
	c.Accumulate(o)
	return c
}

// Accumulate adds o to c in place: the simulator's per-delivery form of Add,
// which builds the sum by value and copies it out.
func (c *ComputeCost) Accumulate(o ComputeCost) {
	c.Hashes += o.Hashes
	c.SigVerifies += o.SigVerifies
	c.SigSigns += o.SigSigns
	c.Pairings += o.Pairings
	c.Bytes += o.Bytes
}

// Config carries the common protocol parameters.
type Config struct {
	// N is the number of nodes.
	N int
	// F is the fault bound t.
	F int
}

// Validate checks basic sanity of the configuration.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("node: n must be positive, got %d", c.N)
	}
	if c.F < 0 {
		return fmt.Errorf("node: f must be non-negative, got %d", c.F)
	}
	if c.N < 3*c.F+1 {
		return fmt.Errorf("node: need n >= 3f+1, got n=%d f=%d", c.N, c.F)
	}
	return nil
}

// Quorum returns n-f, the standard asynchronous quorum size.
func (c Config) Quorum() int { return c.N - c.F }

// Set is a set of node IDs in [0, n), one bit per node: the voter and sender
// sets every protocol here counts with. Membership is a shift and a mask, not
// a hash. Callers check an ID is in [0, n) before they use it on a Set.
type Set []uint64

// SetWords returns the word count of a Set over n nodes.
func SetWords(n int) int { return (n + 63) / 64 }

// Has reports whether id is a member.
func (s Set) Has(id ID) bool { return s[uint(id)>>6]&(1<<(uint(id)&63)) != 0 }

// Add inserts id, reporting whether it was newly inserted.
func (s Set) Add(id ID) bool {
	w, m := uint(id)>>6, uint64(1)<<(uint(id)&63)
	if s[w]&m != 0 {
		return false
	}
	s[w] |= m
	return true
}

// Remove deletes id.
func (s Set) Remove(id ID) { s[uint(id)>>6] &^= 1 << (uint(id) & 63) }

// SubsetOf reports whether every member of s is in o, a set of its size.
func (s Set) SubsetOf(o Set) bool {
	for i, w := range s {
		if w&^o[i] != 0 {
			return false
		}
	}
	return true
}
