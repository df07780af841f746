package runtime

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"

	"delphi/internal/auth"
	"delphi/internal/node"
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
			box.put(Frame{From: 1, Data: append(box.getBuf(len(in))[:0], in...)})
			got, ok := box.recv(nil, false, want)
			switch stale := rec.Snapshot().Value("stale"); {
			case ok != ends:
				t.Fatalf("recv(%x, want %x) returned %v", in, want, ok)
			case ok && (stale != 0 || !bytes.Equal(got.Data, stripped) || got.From != 1):
				t.Fatalf("recv(%x) = %x from %v with %d stale, want %x", in, got.Data, got.From, stale, stripped)
			case !ok && (stale != 1 || box.nfree != 1):
				t.Fatalf("recv dropped %x with %d stale, %d recycled, want 1 and 1", in, stale, box.nfree)
			}

			hub := NewHub(1)
			mux := NewInstanceMux(hub)
			inst, err := mux.Register(suffix)
			if err != nil {
				t.Fatal(err)
			}
			routes := ends && len(in) >= TagSize+auth.MACSize
			mux.route(0, Frame{From: 1, Data: append(hub.inbox[0].getBuf(len(in))[:0], in...)})
			got, ok = inst.slots[0].tryGet()
			switch {
			case ok != routes:
				t.Fatalf("route(%x, tag %x) delivered %v", in, want, ok)
			case ok && (mux.Stale() != 0 || !bytes.Equal(got.Data, stripped) || got.From != 1):
				t.Fatalf("route(%x) = %x from %v with %d stale, want %x", in, got.Data, got.From, mux.Stale(), stripped)
			case !ok && (mux.Stale() != 1 || hub.inbox[0].nfree != 1):
				t.Fatalf("route dropped %x with %d stale, %d recycled, want 1 and 1", in, mux.Stale(), hub.inbox[0].nfree)
			}
			mux.Close()
			hub.Close()
		}
	})
}

// chunkConn serves a fixed stream in reads no longer than its cuts allow:
// read i takes at most 1+c² bytes for c = cuts[i mod len(cuts)] (any length
// when cuts is empty), so one input spans 1-byte reads that split every
// header through reads far larger than the stage. It records whether the
// reader read on to the end of the stream.
type chunkConn struct {
	net.Conn
	data, cuts []byte
	reads      int
	sawEOF     bool
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		c.sawEOF = true
		return 0, io.EOF
	}
	n := min(len(p), len(c.data))
	if len(c.cuts) > 0 {
		cut := int(c.cuts[c.reads%len(c.cuts)])
		n = min(n, 1+cut*cut)
	}
	c.reads++
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// oracleReadLoop is the tcp read loop the splitter replaced: a 16 KiB
// bufio.Reader and io.ReadFull per header and per body. The body goes
// through io.CopyN instead of a buffer of the announced size, which is the
// same read to the stream (it fails exactly when fewer than n bytes follow)
// without allocating a fuzzed header's 64 MiB on every input.
func oracleReadLoop(t *tcpTransport, conn net.Conn) {
	br := bufio.NewReaderSize(conn, 16<<10)
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		from := node.ID(binary.LittleEndian.Uint32(hdr[0:]))
		n := binary.LittleEndian.Uint32(hdr[4:])
		if n > maxFrameSize {
			t.drops.Add(1)
			t.obsDrops.Inc()
			return
		}
		var body bytes.Buffer
		if _, err := io.CopyN(&body, br, int64(n)); err != nil {
			t.drops.Add(1)
			t.obsDrops.Inc()
			return
		}
		if !t.in.put(Frame{From: from, Data: body.Bytes()}) {
			t.drops.Add(1)
			t.obsDrops.Inc()
			return
		}
	}
}

// FuzzLinkReader holds the splitter (linkReader, the read side of every tcp
// link) to the bufio loop it replaced. The input is the stream and the read
// boundaries it arrives in; both readers must deliver the same frames in
// order, count the same drops and stop at the same point: the same stream
// offset, and either both read on to the end of the stream or neither did
// (an oversized header stops a link without reading further). The stage may
// grow past its 16 KiB only with bytes that arrived: never beyond twice the
// stream.
func FuzzLinkReader(f *testing.F) {
	rec := func(sender, n uint32, body []byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, sender)
		return append(binary.LittleEndian.AppendUint32(b, n), body...)
	}
	jumbo := bytes.Repeat([]byte{0x5a}, 40<<10)
	small := append(rec(1, 3, []byte("abc")), rec(2, 0, nil)...)
	f.Add([]byte{}, []byte{})
	f.Add(small, []byte{})
	f.Add(small, []byte{2})                                           // 5-byte reads: every header split
	f.Add(small, []byte{0})                                           // 1-byte reads
	f.Add(rec(1, 100, []byte("short")), []byte{1, 7})                 // truncated body
	f.Add(append(rec(1, 3, []byte("abc")), 9, 9, 9), []byte{})        // truncated header
	f.Add(rec(1, maxFrameSize+1, []byte("never read")), []byte{})     // oversize
	f.Add(append(small, rec(3, maxFrameSize+1, small)...), []byte{3}) // good records, then oversize
	f.Add(rec(4, maxFrameSize, []byte{1}), []byte{})                  // the largest header, one body byte
	f.Add(append(rec(5, uint32(len(jumbo)), jumbo), small...), []byte{})
	f.Add(append(rec(5, uint32(len(jumbo)), jumbo), small...), []byte{255, 13})
	f.Add(append(append(small, rec(6, 20<<10, jumbo[:20<<10])...), small...), []byte{127})
	f.Add(rec(5, uint32(len(jumbo)), jumbo[:30<<10]), []byte{200}) // truncated jumbo
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		type result struct {
			frames []Frame
			drops  uint64
			offset int
			sawEOF bool
		}
		run := func(read func(*tcpTransport, net.Conn)) result {
			tr := &tcpTransport{in: newInbox(16)}
			conn := &chunkConn{data: stream, cuts: cuts}
			read(tr, conn)
			res := result{drops: tr.Drops(), sawEOF: conn.sawEOF}
			for {
				f, ok := tr.in.tryGet()
				if !ok {
					return res
				}
				res.frames = append(res.frames, f)
				res.offset += 8 + len(f.Data)
			}
		}
		want := run(oracleReadLoop)
		var stage int
		got := run(func(tr *tcpTransport, conn net.Conn) {
			r := linkReader{t: tr, buf: make([]byte, stageSize)}
			for r.split(conn.Read(r.space())) {
			}
			stage = len(r.buf)
		})
		if got.drops != want.drops || got.offset != want.offset || got.sawEOF != want.sawEOF || len(got.frames) != len(want.frames) {
			t.Fatalf("splitter: %d frames, %d drops, stopped at %d (read to end: %v); oracle: %d, %d, %d (%v)",
				len(got.frames), got.drops, got.offset, got.sawEOF, len(want.frames), want.drops, want.offset, want.sawEOF)
		}
		for i, w := range want.frames {
			if g := got.frames[i]; g.From != w.From || !bytes.Equal(g.Data, w.Data) {
				t.Fatalf("frame %d = (%d, %d bytes), want (%d, %d bytes)", i, g.From, len(g.Data), w.From, len(w.Data))
			}
		}
		if stage > max(stageSize, 2*len(stream)) {
			t.Fatalf("stage grew to %d bytes on a %d-byte stream", stage, len(stream))
		}
	})
}
