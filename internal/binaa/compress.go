package binaa

import (
	"math"

	"delphi/internal/node"
	"delphi/internal/wire"
)

// This file implements the paper's §II-C communication optimisation: after
// round 1, a node's per-instance state moves on a dyadic lattice by at most
// two half-steps, so a round-opening bundle can encode each previously
// announced instance's new state as one of five symbols (2L/L/C/R/2R) in a
// packed nibble instead of a full (instance, value) entry — the
// "VAL/FIFO-broadcast" technique of Abraham et al. the paper adapts. An
// escape symbol covers transitions outside the lattice (possible only under
// Byzantine influence), and newly activated instances ride along as full
// entries. Likewise, a round's ECHO2 votes whose value equals the sender's
// announced state compress to a bitmap over the sender's announced order.

// Delta symbols for the compressed init bundle.
const (
	symC  = 0 // state unchanged
	symL  = 1 // one half-step left  (−2^−(r−1))
	sym2L = 2 // two half-steps left
	symR  = 3 // one half-step right (+2^−(r−1))
	sym2R = 4 // two half-steps right
	symX  = 5 // escape: value carried in Escapes
)

// halfStep is the lattice unit at round r: 2^-(r-1), built from its exponent
// (r <= 60, Config.Validate's cap).
func halfStep(r int) float64 { return math.Float64frombits(uint64(1024-r) << 52) }

// symStep is each lattice symbol's move in half-steps.
var symStep = [...]float64{symC: 0, symL: -1, sym2L: -2, symR: 1, sym2R: 2}

// deltaSymbol classifies the transition old→new at round r; ok is false if
// it needs the escape path.
func deltaSymbol(old, new float64, r int) (sym uint8, ok bool) {
	q := (new - old) / halfStep(r)
	for sym, step := range symStep {
		if q == step {
			return uint8(sym), true
		}
	}
	return symX, false
}

// applySymbol inverts deltaSymbol (symC, and a symbol off the lattice, keep
// old as it is, −0 included).
func applySymbol(old float64, sym uint8, r int) float64 {
	if sym == symC || int(sym) >= len(symStep) {
		return old
	}
	return old + symStep[sym]*halfStep(r)
}

// packNibbles packs 4-bit symbols two per byte.
func packNibbles(syms []uint8) []byte {
	out := make([]byte, (len(syms)+1)/2)
	for i, s := range syms {
		out[i/2] |= (s & 0x0f) << (4 * (i & 1))
	}
	return out
}

// Echo1C is the compressed round-opening bundle (rounds >= 2): symbols for
// every instance of the sender's previous announcement (in its sorted
// order), escape values, and full entries for newly announced instances.
// Like an init bundle, it implicitly casts ECHO1(0) for every instance it
// does not cover.
type Echo1C struct {
	// Round is the round this bundle opens.
	Round uint16
	// PrevCount is the length of the sender's previous announcement; the
	// receiver cross-checks it against its reconstruction.
	PrevCount uint16
	// Deltas holds PrevCount packed nibble symbols.
	Deltas []byte
	// Escapes carries the values of instances whose symbol is symX, in
	// announcement order.
	Escapes []float64
	// NewVals lists newly announced instances with explicit values.
	NewVals []IVal
}

// Type implements node.Message.
func (m *Echo1C) Type() uint8 { return wire.TypeEcho1C }

// WireSize implements node.Message.
func (m *Echo1C) WireSize() int {
	return 1 + 2 + 2 +
		wire.UVarintSize(uint64(len(m.Deltas))) + len(m.Deltas) +
		wire.UVarintSize(uint64(len(m.Escapes))) + 8*len(m.Escapes) +
		valsWireSize(m.NewVals)
}

// MarshalBinary implements node.Message.
func (m *Echo1C) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter(m.WireSize())
	w.U16(m.Round)
	w.U16(m.PrevCount)
	w.BytesLP(m.Deltas)
	w.UVarint(uint64(len(m.Escapes)))
	for _, v := range m.Escapes {
		w.F64(v)
	}
	encodeVals(w, m.NewVals)
	return w.Bytes(), nil
}

// DecodeEcho1C decodes an Echo1C body.
func DecodeEcho1C(body []byte) (node.Message, error) {
	r := wire.NewReader(body)
	m := &Echo1C{Round: r.U16(), PrevCount: r.U16(), Deltas: append([]byte(nil), r.BytesLP()...)}
	ne := r.UVarint()
	if r.Err() == nil && ne <= uint64(r.Remaining())/8 {
		m.Escapes = make([]float64, 0, ne)
		for i := uint64(0); i < ne; i++ {
			m.Escapes = append(m.Escapes, r.F64())
		}
	}
	m.NewVals = decodeVals(r)
	return m, r.Err()
}

// Echo2C is the compressed ECHO2 bundle: bit i set means "ECHO2 for the
// i-th instance of my round-Round announcement, with the value I announced
// there".
type Echo2C struct {
	// Round is the covered round.
	Round uint16
	// Bits is the bitmap over the sender's announcement order.
	Bits []byte
}

// Type implements node.Message.
func (m *Echo2C) Type() uint8 { return wire.TypeEcho2C }

// WireSize implements node.Message.
func (m *Echo2C) WireSize() int { return 1 + 2 + wire.UVarintSize(uint64(len(m.Bits))) + len(m.Bits) }

// MarshalBinary implements node.Message.
func (m *Echo2C) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter(m.WireSize())
	w.U16(m.Round)
	w.BytesLP(m.Bits)
	return w.Bytes(), nil
}

// DecodeEcho2C decodes an Echo2C body.
func DecodeEcho2C(body []byte) (node.Message, error) {
	r := wire.NewReader(body)
	return &Echo2C{Round: r.U16(), Bits: append([]byte(nil), r.BytesLP()...)}, r.Err()
}

// setBit marks bit i in a growable bitmap.
func setBit(bits []byte, i int) []byte {
	for len(bits) <= i/8 {
		bits = append(bits, 0)
	}
	bits[i/8] |= 1 << (i % 8)
	return bits
}
