package codec_test

import (
	"bytes"
	"sync"
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

// TestEveryMessageAppends: every message type appends its frame after the
// bytes already in a buffer, leaving them as they were, and into a buffer
// with room allocates nothing (the driver encodes every send so).
func TestEveryMessageAppends(t *testing.T) {
	for _, m := range sampleMessages() {
		frame, err := wire.Encode(m)
		if err != nil {
			t.Fatalf("type %d: encode: %v", m.Type(), err)
		}
		buf := append(make([]byte, 0, 3+len(frame)), "pre"...)
		var out []byte
		if a := testing.AllocsPerRun(10, func() { out, err = wire.Append(buf, m) }); a != 0 || err != nil {
			t.Errorf("type %d: %.0f allocations, %v appending into a buffer with room", m.Type(), a, err)
		}
		if string(out) != "pre"+string(frame) {
			t.Errorf("type %d: appended %x, want \"pre\" then %x", m.Type(), out, frame)
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
			_, _ = reg.DecodeFramed(append([]byte{typ}, body...))
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
		if _, err := reg.DecodeFramed([]byte{typ}); err != nil && err.Error() == "wire: unknown message type "+string(rune(typ)) {
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
// Decoded through an arena shared with every earlier input, the frame must
// encode exactly as it does decoded without one.
func FuzzDecodeFramed(f *testing.F) {
	for _, m := range sampleMessages() {
		frame, err := wire.Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	reg := codec.MustRegistry()
	canonical := func(t *testing.T, frame []byte, a *wire.Arena) []byte {
		m, err := reg.DecodeIn(frame, a)
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
	// One arena carves every input's messages, as a driver's carves every
	// frame it receives.
	var mu sync.Mutex
	shared := new(wire.Arena)
	f.Fuzz(func(t *testing.T, data []byte) {
		want := canonical(t, data[:len(data):len(data)], nil)
		for _, fill := range []byte{0x00, 0xff} {
			padded := append(append(make([]byte, 0, len(data)+16), data...), bytes.Repeat([]byte{fill}, 16)...)
			if got := canonical(t, padded[:len(data)], nil); !bytes.Equal(got, want) {
				t.Fatalf("frame %x decodes differently with %#x behind it: %x, alone %x", data, fill, got, want)
			}
		}
		mu.Lock()
		got := canonical(t, data, shared)
		mu.Unlock()
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %x decodes differently through a shared arena: %x, without one %x", data, got, want)
		}
		if want == nil {
			return
		}
		if again := canonical(t, want, nil); !bytes.Equal(again, want) {
			t.Fatalf("frame %x: canonical form %x decodes and encodes to %x", data, want, again)
		}
	})
}

// TestArenaKeepsMessages: a message carved from an arena stays intact
// however many frames the arena decodes after it, because an arena never
// hands out the same memory twice. One message of every registered type is
// kept while over ten thousand further frames, each sample with its body
// bytes flipped, are decoded through the same arena.
func TestArenaKeepsMessages(t *testing.T) {
	reg := codec.MustRegistry()
	var a wire.Arena
	var frames [][]byte
	var kept []node.Message
	for _, m := range sampleMessages() {
		frame, err := wire.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		dm, err := reg.DecodeIn(frame, &a)
		if err != nil {
			t.Fatalf("type %d: %v", m.Type(), err)
		}
		frames, kept = append(frames, frame), append(kept, dm)
	}
	decoded := 0
	for i := 0; decoded < 10_000; i++ {
		if i > 100_000 {
			t.Fatalf("only %d of %d flipped frames decoded", decoded, i)
		}
		frame := bytes.Clone(frames[i%len(frames)])
		for j := 1; j < len(frame); j++ {
			frame[j] ^= byte(i/len(frames)) | 0x80
		}
		if _, err := reg.DecodeIn(frame, &a); err == nil {
			decoded++
		}
	}
	for i, m := range kept {
		again, err := wire.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, frames[i]) {
			t.Errorf("type %d: kept message re-encodes to %x after %d more decodes, want %x", m.Type(), again, decoded, frames[i])
		}
	}
}
