package binaa

import (
	"delphi/internal/node"
	"delphi/internal/wire"
)

// IVal is one (instance, round, value) entry inside a bundled echo message.
type IVal struct {
	// ID is the instance the entry refers to.
	ID IID
	// Round is the BinAA round the entry votes in.
	Round uint16
	// V is the echoed value.
	V float64
}

func encodeVals(w *wire.Writer, vals []IVal) {
	w.UVarint(uint64(len(vals)))
	for _, v := range vals {
		w.U8(v.ID.Level)
		w.Varint(int64(v.ID.K))
		w.U16(v.Round)
		w.F64(v.V)
	}
}

func decodeVals(r *wire.Reader) []IVal {
	n := r.UVarint()
	if r.Err() != nil || n > uint64(r.Remaining()) { // each entry >= 1 byte
		return nil
	}
	vals := make([]IVal, 0, n)
	for i := uint64(0); i < n; i++ {
		var v IVal
		v.ID.Level = r.U8()
		v.ID.K = int32(r.Varint())
		v.Round = r.U16()
		v.V = r.F64()
		vals = append(vals, v)
	}
	return vals
}

func valsWireSize(vals []IVal) int {
	s := wire.UVarintSize(uint64(len(vals)))
	for _, v := range vals {
		s += 1 + wire.VarintSize(int64(v.ID.K)) + 2 + 8
	}
	return s
}

// Echo1 carries ECHO1 votes. An Init bundle opens the sender's Round and
// implicitly casts ECHO1(0) for every instance it does not list; a non-Init
// message carries explicit amplification echoes (each entry has its own
// round).
type Echo1 struct {
	// Round is the round this Init bundle opens (ignored for non-Init).
	Round uint16
	// Init marks the message as a round-opening bundle with implicit zeros.
	Init bool
	// Vals are the explicit entries.
	Vals []IVal
}

// Type implements node.Message.
func (m *Echo1) Type() uint8 { return wire.TypeEcho1 }

// WireSize implements node.Message.
func (m *Echo1) WireSize() int { return 1 + 2 + 1 + valsWireSize(m.Vals) }

// MarshalBinary implements node.Message.
func (m *Echo1) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter(m.WireSize())
	w.U16(m.Round)
	w.Bool(m.Init)
	encodeVals(w, m.Vals)
	return w.Bytes(), nil
}

// DecodeEcho1 decodes an Echo1 message body.
func DecodeEcho1(body []byte) (node.Message, error) {
	r := wire.NewReader(body)
	return &Echo1{Round: r.U16(), Init: r.Bool(), Vals: decodeVals(r)}, r.Err()
}

// Echo2 carries ECHO2 votes. A Zeros bundle casts ECHO2(0) for round Round
// for every instance the sender's init bundle for that round did not list
// with a non-zero value; explicit entries carry their own rounds.
type Echo2 struct {
	// Round is the round the Zeros flag covers (ignored when !Zeros).
	Round uint16
	// Zeros marks the implicit-zero ECHO2 bundle.
	Zeros bool
	// Vals are the explicit entries.
	Vals []IVal
}

// Type implements node.Message.
func (m *Echo2) Type() uint8 { return wire.TypeEcho2 }

// WireSize implements node.Message.
func (m *Echo2) WireSize() int { return 1 + 2 + 1 + valsWireSize(m.Vals) }

// MarshalBinary implements node.Message.
func (m *Echo2) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter(m.WireSize())
	w.U16(m.Round)
	w.Bool(m.Zeros)
	encodeVals(w, m.Vals)
	return w.Bytes(), nil
}

// DecodeEcho2 decodes an Echo2 message body.
func DecodeEcho2(body []byte) (node.Message, error) {
	r := wire.NewReader(body)
	return &Echo2{Round: r.U16(), Zeros: r.Bool(), Vals: decodeVals(r)}, r.Err()
}

// Register installs the package's message decoders into a wire registry.
func Register(reg *wire.Registry) error {
	if err := reg.Register(wire.TypeEcho1, DecodeEcho1); err != nil {
		return err
	}
	if err := reg.Register(wire.TypeEcho2, DecodeEcho2); err != nil {
		return err
	}
	if err := reg.Register(wire.TypeEcho1C, DecodeEcho1C); err != nil {
		return err
	}
	return reg.Register(wire.TypeEcho2C, DecodeEcho2C)
}
