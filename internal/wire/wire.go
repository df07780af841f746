// Package wire provides the hand-rolled binary encoding used by every
// protocol message in this repository, plus a registry that maps wire-type
// bytes to decoders so transports can reconstruct concrete message types.
//
// The encoding is deliberately simple and deterministic: fixed-width
// little-endian integers and IEEE-754 floats, with unsigned varints for
// lengths. Encoding appends: a message's AppendBinary appends its body
// (never its own type byte) to the caller's slice through a Writer, and
// Append puts the type byte in front, so a sender that reuses one buffer
// encodes without allocating. Length and MAC are the transport's.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"

	"delphi/internal/node"
)

// Wire-type bytes for every message in the repository. Centralising them
// here guarantees global uniqueness.
const (
	// BinAA / Delphi (internal/binaa, internal/core).
	TypeEcho1 uint8 = iota + 1
	TypeEcho2
	TypeEcho1C
	TypeEcho2C

	// Bracha reliable broadcast (internal/rbc).
	TypeRBCInit
	TypeRBCEcho
	TypeRBCReady

	// Common coin (internal/coin).
	TypeCoinShare

	// Binary Byzantine agreement (internal/aba).
	TypeABABVal
	TypeABAAux

	// ACS (internal/acs).
	TypeACSPayload

	// Abraham et al. / Dolev et al. AAA baselines (internal/aaa).
	TypeAAAValue
	TypeAAAReport
	TypeAAAMulticast

	// DORA oracle layer (internal/dora).
	TypeDoraSig
	TypeDoraSubmit

	// Test-only messages.
	TypeTestPing
)

// TypeBatch is reserved for the live transports' multi-frame batch
// envelope (runtime.BatchType): a frame starting with this byte is a
// container of frames, not a protocol message, and the registry refuses to
// let a decoder claim it.
const TypeBatch uint8 = 0xFF

// ErrTruncated reports a message body shorter than its encoding requires.
var ErrTruncated = errors.New("wire: truncated message")

// Writer appends primitives to a byte slice: wire.Writer(b) writes after
// b's bytes, into b's spare capacity while it lasts, and the Writer is the
// grown slice. A message's AppendBinary starts one on the caller's buffer, so
// encoding into a buffer with room allocates nothing.
type Writer []byte

// U8 writes one byte.
func (w *Writer) U8(v uint8) { *w = append(*w, v) }

// U16 writes a fixed-width little-endian uint16.
func (w *Writer) U16(v uint16) { *w = binary.LittleEndian.AppendUint16(*w, v) }

// U32 writes a fixed-width little-endian uint32.
func (w *Writer) U32(v uint32) { *w = binary.LittleEndian.AppendUint32(*w, v) }

// U64 writes a fixed-width little-endian uint64.
func (w *Writer) U64(v uint64) { *w = binary.LittleEndian.AppendUint64(*w, v) }

// UVarint writes an unsigned varint.
func (w *Writer) UVarint(v uint64) { *w = binary.AppendUvarint(*w, v) }

// Varint writes a signed varint.
func (w *Writer) Varint(v int64) { *w = binary.AppendVarint(*w, v) }

// F64 writes an IEEE-754 float64.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// BytesLP writes a length-prefixed byte slice.
func (w *Writer) BytesLP(b []byte) {
	w.UVarint(uint64(len(b)))
	*w = append(*w, b...)
}

// Reader deserialises primitives from a byte buffer.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// take returns the next n bytes, or n zero bytes once a read has failed.
func (r *Reader) take(n int) []byte {
	if r.err == nil && r.off+n > len(r.buf) {
		r.err = ErrTruncated
	}
	if r.err != nil {
		return zeros[:n]
	}
	r.off += n
	return r.buf[r.off-n : r.off]
}

var zeros [8]byte

// U8 reads one byte.
func (r *Reader) U8() uint8 { return r.take(1)[0] }

// U16 reads a fixed-width little-endian uint16.
func (r *Reader) U16() uint16 { return binary.LittleEndian.Uint16(r.take(2)) }

// U32 reads a fixed-width little-endian uint32.
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }

// U64 reads a fixed-width little-endian uint64.
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }

// UVarint reads an unsigned varint.
func (r *Reader) UVarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = ErrTruncated
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	u := r.UVarint()
	return int64(u>>1) ^ -int64(u&1)
}

// F64 reads an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// BytesLP reads a length-prefixed byte slice. The returned slice aliases the
// reader's buffer.
func (r *Reader) BytesLP() []byte {
	n := r.UVarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// UVarintSize returns the encoded size of v as an unsigned varint.
func UVarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// VarintSize returns the encoded size of v as a signed varint.
func VarintSize(v int64) int {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return UVarintSize(uv)
}

// Decoder reconstructs a message from its encoded body, carved from a.
type Decoder func(body []byte, a *Arena) (node.Message, error)

// Arena is what decoders and senders carve messages from: per Go type (message
// structs, slice elements, bytes), one 512-byte chunk at a time, front to back.
// Nothing is handed out twice before a Reset, so a message never aliases a
// later one. An arena is carve-only until a Reset rewinds what it carved: a
// chunk is garbage once no message points into it, and a message may be kept
// at will. From then on it keeps every chunk it carves, and the next Reset
// hands them out again: what it carved before must be dead by then. A nil
// *Arena allocates each value alone. Not for concurrent use.
type Arena struct{ slabs []interface{ reset() } } // per T, a *slab[T]

// slab is one Go type's chunks: rest is the uncarved tail of the one being
// carved, and chunks[:next] those carved from since the last Reset, once a
// Reset has found the type carved (keep).
type slab[T any] struct {
	chunks [][]T
	next   int
	rest   []T
	keep   bool
}

func (c *slab[T]) reset() {
	for _, ch := range c.chunks[:c.next] {
		clear(ch)
	}
	c.next, c.rest, c.keep = 0, nil, true
}

// Reset rewinds a to the first of the chunks it keeps, zeroed. Every value
// carved from a until now must be dead: the next Make hands it out again.
func (a *Arena) Reset() {
	for _, s := range a.slabs {
		s.reset()
	}
}

// Make returns n zeroed Ts carved from a. A run of over a quarter chunk that
// does not fit is allocated alone, wasting no chunk's rest and pinning none.
func Make[T any](a *Arena, n int) (s []T) {
	if a == nil {
		return make([]T, n)
	}
	var c *slab[T]
	for i := 0; c == nil && i < len(a.slabs); i++ {
		c, _ = a.slabs[i].(*slab[T])
	}
	if c == nil {
		c = new(slab[T])
		a.slabs = append(a.slabs, c)
	}
	if n > len(c.rest) {
		size := 512 / max(1, int(unsafe.Sizeof(*new(T))))
		if 4*n > size {
			return make([]T, n)
		}
		if c.next < len(c.chunks) {
			c.rest, c.next = c.chunks[c.next], c.next+1
		} else if c.rest = make([]T, size); c.keep {
			c.chunks, c.next = append(c.chunks, c.rest), c.next+1
		}
	}
	s, c.rest = c.rest[:n:n], c.rest[n:]
	return s
}

// Lender is the optional capability of an Env that lends its node an arena
// to carve what it sends from, kept from run to run (see node.Env.Send).
type Lender interface{ SentArena() *Arena }

// SentArena returns the arena env lends, or nil when it lends none: a nil
// *Arena allocates each value alone.
func SentArena(env node.Env) *Arena {
	if l, ok := env.(Lender); ok {
		return l.SentArena()
	}
	return nil
}

// New returns a copy of v carved from a.
func New[T any](a *Arena, v T) *T {
	p := &Make[T](a, 1)[0]
	*p = v
	return p
}

// Copy returns a copy of b carved from a.
func (a *Arena) Copy(b []byte) []byte { return append(Make[byte](a, len(b))[:0], b...) }

// Registry maps wire-type bytes to decoders.
type Registry struct {
	decoders [256]Decoder
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register installs a decoder for wire type t. Registering the same type
// twice is a programming error and returns an error.
func (g *Registry) Register(t uint8, d Decoder) error {
	if t == TypeBatch {
		return fmt.Errorf("wire: type %d is reserved for transport batch envelopes", t)
	}
	if g.decoders[t] != nil {
		return fmt.Errorf("wire: type %d already registered", t)
	}
	g.decoders[t] = d
	return nil
}

// Append appends m's frame, its type byte followed by its body, to b. On an
// error b comes back as it was.
func Append(b []byte, m node.Message) ([]byte, error) {
	out, err := m.AppendBinary(append(b, m.Type()))
	if err != nil {
		return b, fmt.Errorf("wire: marshal type %d: %w", m.Type(), err)
	}
	return out, nil
}

// Encode returns m's frame in a buffer of its own.
func Encode(m node.Message) ([]byte, error) { return Append(make([]byte, 0, m.WireSize()), m) }

// DecodeFramed splits a framed message into its type byte and body and
// decodes it through the registry.
func (g *Registry) DecodeFramed(frame []byte) (node.Message, error) { return g.DecodeIn(frame, nil) }

// DecodeIn is DecodeFramed carving the message from a.
func (g *Registry) DecodeIn(frame []byte, a *Arena) (node.Message, error) {
	if len(frame) < 1 {
		return nil, ErrTruncated
	}
	if d := g.decoders[frame[0]]; d != nil {
		return d(frame[1:], a)
	}
	return nil, fmt.Errorf("wire: unknown message type %d", frame[0])
}
