package runtime

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"

	"delphi/internal/auth"
	"delphi/internal/obs"
)

// FuzzUnpackBatch drives the envelope codec from both ends. Forwards: the
// input is cut into frames, and AppendBatch∘UnpackBatch must hand back
// exactly those frames in order. Backwards: the raw input is unpacked as if
// it had come off a socket; it must either walk cleanly to the end — every
// member a sub-slice of the input, members plus their length prefixes
// summing to the input's length — or stop with ErrBadBatch, never panic and
// never hand out bytes past the input. The accounting wrapper's clean-path
// totals (members, payload bytes) are what the callback sees, so the same
// walk pins them.
func FuzzUnpackBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{BatchType})
	f.Add([]byte{BatchType, 0})
	f.Add([]byte{BatchType, 3, 'a', 'b', 'c', 1, 'z'})
	f.Add([]byte{BatchType, 5, 'a'})                                                          // member longer than the rest
	f.Add([]byte{BatchType, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 'x'}) // length overflows int
	f.Add([]byte{BatchType, 0x80})                                                            // unterminated varint
	f.Add([]byte{BatchType, 0x80, 0x00})                                                      // two-byte encoding of length 0
	f.Add(AppendBatch(nil, [][]byte{{1, 2, 3}, {}, bytes.Repeat([]byte{7}, 300)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Forwards: frame i is the next data[i]%7 bytes of what is left.
		var frames [][]byte
		for rest := data; len(rest) > 0; {
			n := min(int(rest[0]%7), len(rest)-1)
			frames = append(frames, rest[1:1+n])
			rest = rest[1+n:]
		}
		env := AppendBatch(nil, frames)
		i := 0
		if err := UnpackBatch(env, func(inner []byte) bool {
			if i >= len(frames) || !bytes.Equal(inner, frames[i]) {
				t.Fatalf("member %d = %x, want %x", i, inner, frames[i])
			}
			i++
			return true
		}); err != nil || i != len(frames) {
			t.Fatalf("round trip of %d frames: %d members, err %v", len(frames), i, err)
		}

		// Backwards: data as an envelope straight off the wire. off walks
		// the input alongside the callback: each member must be exactly the
		// bytes after its own length prefix.
		members, payload, off := 0, 0, 1
		err := UnpackBatch(data, func(inner []byte) bool {
			ln, n := binary.Uvarint(data[off:])
			off += n
			if ln != uint64(len(inner)) || off+len(inner) > len(data) || len(inner) > 0 && &inner[0] != &data[off] {
				t.Fatalf("member %d is not data[%d:%d]", members, off, off+len(inner))
			}
			off += len(inner)
			members++
			payload += len(inner)
			return true
		})
		switch {
		case err == nil:
			if !IsBatch(data) || off != len(data) {
				t.Fatalf("clean walk of %d bytes ended at %d after %d members (%d payload bytes)", len(data), off, members, payload)
			}
		case !errors.Is(err, ErrBadBatch):
			t.Fatalf("err = %v, want ErrBadBatch", err)
		}
	})
}

// streamConn is the read side of a connection that delivers a fixed stream.
type streamConn struct {
	net.Conn
	r io.Reader
}

func (c streamConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c streamConn) Close() error               { return nil }

// FuzzTCPHeaderLoop feeds the tcp read side an arbitrary byte stream and
// checks it against a straight-line reading of the record format
// [sender u32][len u32][len bytes]: every complete record is delivered in
// order with its sender and exact bytes; the stream ending inside a header
// is a normal close; ending inside a body counts one drop; a length above
// maxFrameSize counts one drop and stops the connection before a buffer of
// that size is ever fetched.
func FuzzTCPHeaderLoop(f *testing.F) {
	rec := func(sender, n uint32, body []byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, sender)
		return append(binary.LittleEndian.AppendUint32(b, n), body...)
	}
	f.Add([]byte{})
	f.Add(rec(1, 3, []byte("abc")))
	f.Add(append(rec(1, 3, []byte("abc")), rec(2, 0, nil)...))
	f.Add(rec(1, 100, []byte("short")))                           // truncated body
	f.Add(rec(1, maxFrameSize+1, []byte("never read")))           // oversize
	f.Add(append(rec(7, 2, []byte("ok")), rec(1, 1<<31, nil)...)) // good record, then oversize
	f.Add(rec(1, 3, []byte("abc"))[:5])                           // truncated header
	f.Fuzz(func(t *testing.T, stream []byte) {
		type record struct {
			from uint32
			body []byte
		}
		var want []record
		wantDrops := uint64(0)
		for rest := stream; len(rest) >= 8; {
			from, n := binary.LittleEndian.Uint32(rest), binary.LittleEndian.Uint32(rest[4:])
			rest = rest[8:]
			if n > maxFrameSize || uint64(n) > uint64(len(rest)) {
				wantDrops = 1
				break
			}
			want = append(want, record{from, rest[:n]})
			rest = rest[n:]
		}

		tr := &tcpTransport{in: newInbox(16)}
		tr.wg.Add(1)
		tr.readLoop(streamConn{r: bytes.NewReader(stream)})
		if got := tr.Drops(); got != wantDrops {
			t.Fatalf("drops = %d, want %d", got, wantDrops)
		}
		for i, w := range want {
			f, ok := tr.in.tryGet()
			if !ok {
				t.Fatalf("record %d of %d never delivered", i, len(want))
			}
			if uint32(f.From) != w.from || !bytes.Equal(f.Data, w.body) {
				t.Fatalf("record %d = (%d, %x), want (%d, %x)", i, f.From, f.Data, w.from, w.body)
			}
			if cap(f.Data) > maxFrameSize {
				t.Fatalf("record %d sits in a %d-byte buffer, above the cap", i, cap(f.Data))
			}
		}
		if f, ok := tr.in.tryGet(); ok {
			t.Fatalf("unexpected extra frame from %d (%d bytes)", f.From, len(f.Data))
		}
	})
}

// FuzzSuffixDemux feeds arbitrary frames to the two places that read the
// 8-byte plaintext suffix of a fabric frame: a plain endpoint's epoch filter
// (inbox.recv with a want) and the InstanceMux's tag router. Neither may
// panic; a frame comes out only if it ends in the expected suffix, and then
// as exactly the input with the suffix cut off; anything else — shorter than
// the suffix, or for the mux shorter than suffix plus MAC — is counted stale
// and its buffer recycled.
func FuzzSuffixDemux(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{1, 2, 3}, uint64(0x0000000000030201))
	f.Add(bytes.Repeat([]byte{0xee}, TagSize), uint64(0xeeeeeeeeeeeeeeee))
	f.Add(bytes.Repeat([]byte{0xee}, TagSize+auth.MACSize), uint64(0xeeeeeeeeeeeeeeee))
	f.Add(bytes.Repeat([]byte{0xee}, TagSize+auth.MACSize-1), uint64(0xeeeeeeeeeeeeeeee))
	f.Add(append(bytes.Repeat([]byte{7}, 40), 1, 0, 0, 0, 0, 0, 0, 0), uint64(1))
	f.Fuzz(func(t *testing.T, data []byte, suffix uint64) {
		want := binary.LittleEndian.AppendUint64(nil, suffix)
		// Each input goes through as it is and with the suffix appended, so
		// both verdicts are reached on every iteration.
		for _, in := range [][]byte{data, append(append([]byte(nil), data...), want...)} {
			ends := bytes.HasSuffix(in, want)
			stripped := in[:max(len(in)-TagSize, 0)]

			rec := obs.New()
			box := newInbox(16)
			box.stale = rec.Counter("stale")
			box.put(Frame{From: 1, Data: append([]byte(nil), in...)})
			got, ok := box.recv(nil, false, want)
			switch stale := rec.Snapshot().Value("stale"); {
			case ok != ends:
				t.Fatalf("recv(%x, want %x) returned %v", in, want, ok)
			case ok && (stale != 0 || !bytes.Equal(got.Data, stripped) || got.From != 1):
				t.Fatalf("recv(%x) = %x from %v with %d stale, want %x", in, got.Data, got.From, stale, stripped)
			case !ok && (stale != 1 || len(in) > 0 && len(box.free) != 1):
				t.Fatalf("recv dropped %x with %d stale, %d recycled, want 1 and 1", in, stale, len(box.free))
			}

			hub := NewHub(1)
			mux := NewInstanceMux(hub)
			inst, err := mux.Register(suffix)
			if err != nil {
				t.Fatal(err)
			}
			routes := ends && len(in) >= TagSize+auth.MACSize
			mux.route(0, Frame{From: 1, Data: append([]byte(nil), in...)})
			got, ok = inst.slots[0].tryGet()
			switch {
			case ok != routes:
				t.Fatalf("route(%x, tag %x) delivered %v", in, want, ok)
			case ok && (mux.Stale() != 0 || !bytes.Equal(got.Data, stripped) || got.From != 1):
				t.Fatalf("route(%x) = %x from %v with %d stale, want %x", in, got.Data, got.From, mux.Stale(), stripped)
			case !ok && (mux.Stale() != 1 || len(in) > 0 && len(hub.inbox[0].free) != 1):
				t.Fatalf("route dropped %x with %d stale, %d recycled, want 1 and 1", in, mux.Stale(), len(hub.inbox[0].free))
			}
			mux.Close()
			hub.Close()
		}
	})
}
