// Package aaa implements the two classic asynchronous approximate-agreement
// baselines the paper compares against:
//
//   - Abraham, Amit and Dolev (OPODIS'04): optimal resilience n = 3t+1,
//     per-round reliable broadcast of every node's state plus the witness
//     technique, O(n³) bits per round and O(log(δ/ε)) rounds; and
//   - Dolev, Lynch, Pinter, Stark and Weihl (JACM'86): resilience n = 5t+1
//     with plain multicast rounds, trimming t values from each side.
//
// Both converge by halving the honest range every round and offer strict
// convex validity [m, M].
package aaa

import (
	"delphi/internal/node"
	"delphi/internal/wire"
)

// Report is Abraham et al.'s witness report: the set of nodes whose
// round-r values the sender has reliably delivered.
type Report struct {
	// Round is the protocol round the report covers.
	Round uint16
	// Have lists the initiators whose round-r values the sender delivered.
	Have []node.ID
}

// Type implements node.Message.
func (m *Report) Type() uint8 { return wire.TypeAAAReport }

// WireSize implements node.Message.
func (m *Report) WireSize() int {
	s := 1 + 2 + wire.UVarintSize(uint64(len(m.Have)))
	for _, id := range m.Have {
		s += wire.UVarintSize(uint64(id))
	}
	return s
}

// AppendBinary implements node.Message.
func (m *Report) AppendBinary(b []byte) ([]byte, error) {
	w := wire.Writer(b)
	w.U16(m.Round)
	w.UVarint(uint64(len(m.Have)))
	for _, id := range m.Have {
		w.UVarint(uint64(id))
	}
	return w, nil
}

// DecodeReport decodes a Report body.
func DecodeReport(body []byte, a *wire.Arena) (node.Message, error) {
	r := wire.NewReader(body)
	m := wire.New(a, Report{})
	m.Round = r.U16()
	n := r.UVarint()
	if r.Err() != nil || n > uint64(r.Remaining())+1 {
		return m, wire.ErrTruncated
	}
	m.Have = wire.Make[node.ID](a, int(n))
	for i := range m.Have {
		m.Have[i] = node.ID(r.UVarint())
	}
	return m, r.Err()
}

// Value is Dolev et al.'s plain multicast of a node's round state.
type Value struct {
	// Round is the protocol round.
	Round uint16
	// V is the sender's state value.
	V float64
}

// Type implements node.Message.
func (m *Value) Type() uint8 { return wire.TypeAAAMulticast }

// WireSize implements node.Message.
func (m *Value) WireSize() int { return 1 + 2 + 8 }

// AppendBinary implements node.Message.
func (m *Value) AppendBinary(b []byte) ([]byte, error) {
	w := wire.Writer(b)
	w.U16(m.Round)
	w.F64(m.V)
	return w, nil
}

// DecodeValue decodes a Value body.
func DecodeValue(body []byte, a *wire.Arena) (node.Message, error) {
	r := wire.NewReader(body)
	m := wire.New(a, Value{})
	m.Round = r.U16()
	m.V = r.F64()
	return m, r.Err()
}

// Register installs the package's decoders.
func Register(reg *wire.Registry) error {
	if err := reg.Register(wire.TypeAAAReport, DecodeReport); err != nil {
		return err
	}
	return reg.Register(wire.TypeAAAMulticast, DecodeValue)
}
