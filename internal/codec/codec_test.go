package codec_test

import (
	"bytes"
	"testing"

	"delphi/internal/aaa"
	"delphi/internal/aba"
	"delphi/internal/binaa"
	"delphi/internal/coin"
	"delphi/internal/dora"
	"delphi/internal/node"
	"delphi/internal/rbc"
	"delphi/internal/wire"

	"delphi/internal/codec"
)

// sampleMessages returns one instance of every message type in the
// repository.
func sampleMessages() []node.Message {
	return []node.Message{
		&binaa.Echo1{Round: 2, Init: true, Vals: []binaa.IVal{
			{ID: binaa.IID{Level: 1, K: -3}, Round: 2, V: 0.5},
			{ID: binaa.IID{Level: 0, K: 20500}, Round: 2, V: 1},
		}},
		&binaa.Echo2{Round: 3, Zeros: true, Vals: []binaa.IVal{
			{ID: binaa.IID{Level: 2, K: 7}, Round: 3, V: 0.25},
		}},
		&binaa.Echo1C{Round: 4, PrevCount: 2, Deltas: []byte{0x21},
			Escapes: []float64{0.375}, NewVals: []binaa.IVal{{ID: binaa.IID{K: 9}, Round: 4, V: 0}}},
		&binaa.Echo2C{Round: 5, Bits: []byte{0xff, 0x01}},
		&rbc.Init{Tag: 7, Payload: []byte("payload")},
		&rbc.Echo{Initiator: 3, Tag: 7, Payload: []byte("payload")},
		&rbc.Ready{Initiator: 3, Tag: 7, Payload: []byte("payload")},
		&coin.Share{Coin: 99, Blob: make([]byte, coin.ShareBytes)},
		&aba.BVal{Inst: 11, Round: 2, V: true},
		&aba.Aux{Inst: 11, Round: 2, V: false},
		&aaa.Report{Round: 4, Have: []node.ID{0, 2, 5}},
		&aaa.Value{Round: 6, V: 123.25},
		&dora.Sig{V: 42, Sig: make([]byte, 64)},
	}
}

// TestEveryMessageRoundTrips encodes one instance of every message type in
// the repository through the global registry and checks structural
// equality after decoding, plus WireSize accuracy.
func TestEveryMessageRoundTrips(t *testing.T) {
	reg := codec.MustRegistry()
	for _, m := range sampleMessages() {
		frame, err := wire.Encode(m)
		if err != nil {
			t.Fatalf("type %d: encode: %v", m.Type(), err)
		}
		if len(frame) != m.WireSize() {
			t.Errorf("type %d: WireSize %d != framed size %d", m.Type(), m.WireSize(), len(frame))
		}
		dm, err := reg.DecodeFramed(frame)
		if err != nil {
			t.Fatalf("type %d: decode: %v", m.Type(), err)
		}
		if dm.Type() != m.Type() {
			t.Errorf("type %d decoded as %d", m.Type(), dm.Type())
		}
		// Re-encode must be byte-identical (canonical encoding).
		frame2, err := wire.Encode(dm)
		if err != nil {
			t.Fatalf("type %d: re-encode: %v", m.Type(), err)
		}
		if string(frame) != string(frame2) {
			t.Errorf("type %d: re-encoding differs", m.Type())
		}
	}
}

// TestDecodersRejectGarbage feeds truncated bodies to every registered
// decoder; none may panic, and truncations of length-bearing messages must
// error.
func TestDecodersRejectGarbage(t *testing.T) {
	reg := codec.MustRegistry()
	for typ := uint8(1); typ < 20; typ++ {
		for _, body := range [][]byte{nil, {0x01}, {0xff, 0xff, 0xff}} {
			// Must not panic; errors are acceptable and expected.
			_, _ = reg.Decode(typ, body)
		}
	}
}

func TestMustRegistryIsComplete(t *testing.T) {
	reg := codec.MustRegistry()
	for _, typ := range []uint8{
		wire.TypeEcho1, wire.TypeEcho2, wire.TypeEcho1C, wire.TypeEcho2C,
		wire.TypeRBCInit, wire.TypeRBCEcho, wire.TypeRBCReady,
		wire.TypeCoinShare, wire.TypeABABVal, wire.TypeABAAux,
		wire.TypeAAAReport, wire.TypeAAAMulticast, wire.TypeDoraSig,
	} {
		if _, err := reg.Decode(typ, nil); err != nil && err.Error() == "wire: unknown message type "+string(rune(typ)) {
			t.Errorf("type %d not registered", typ)
		}
	}
}

// FuzzDecodeFramed feeds arbitrary frames to the full registry — the decode
// every transport runs on bytes off a socket, and the size the simulator caches
// per send. No input may panic a decoder or make it read past the frame's end
// (the frame is decoded with spare capacity behind it, filled two ways, and
// with none: all three must agree). Whatever decodes must be a message the
// repository could have sent: it encodes, to exactly WireSize bytes, and that
// canonical frame decodes to a message that encodes to the same bytes again.
func FuzzDecodeFramed(f *testing.F) {
	for _, m := range sampleMessages() {
		frame, err := wire.Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	reg := codec.MustRegistry()
	canonical := func(t *testing.T, frame []byte) []byte {
		m, err := reg.DecodeFramed(frame)
		if err != nil {
			return nil
		}
		out, err := wire.Encode(m)
		if err != nil {
			t.Fatalf("type %d decoded from %x does not encode: %v", m.Type(), frame, err)
		}
		if len(out) != m.WireSize() {
			t.Fatalf("type %d decoded from %x: WireSize %d != framed size %d", m.Type(), frame, m.WireSize(), len(out))
		}
		return out
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := canonical(t, data[:len(data):len(data)])
		for _, fill := range []byte{0x00, 0xff} {
			padded := append(append(make([]byte, 0, len(data)+16), data...), bytes.Repeat([]byte{fill}, 16)...)
			if got := canonical(t, padded[:len(data)]); !bytes.Equal(got, want) {
				t.Fatalf("frame %x decodes differently with %#x behind it: %x, alone %x", data, fill, got, want)
			}
		}
		if want == nil {
			return
		}
		if again := canonical(t, want); !bytes.Equal(again, want) {
			t.Fatalf("frame %x: canonical form %x decodes and encodes to %x", data, want, again)
		}
	})
}
