package auth

import (
	"bytes"
	"errors"
	"testing"

	"delphi/internal/node"
)

// FuzzAuthOpen drives Open, the check every frame off a socket must pass,
// with arbitrary bytes under an arbitrary claimed sender. Nothing opens but
// AppendSeal's own output, at the node it was sealed for, under the sender
// that sealed it: arbitrary input is ErrBadMAC; a sealed frame opens to its
// payload as a prefix of the input, never a byte past it, and stops opening
// under any other sender, at the sender itself (a reflected frame), after any
// truncation, and after any single-bit flip.
func FuzzAuthOpen(f *testing.F) {
	f.Add([]byte{}, int64(0), uint8(0), uint32(0))
	f.Add([]byte("payload"), int64(1), uint8(2), uint32(13))
	f.Add(make([]byte, MACSize), int64(-1), uint8(1), uint32(255))
	f.Add(make([]byte, MACSize-1), int64(1<<40), uint8(4), uint32(7))
	f.Add(bytes.Repeat([]byte{0xa5}, 300), int64(3), uint8(3), uint32(1<<31))
	const n = 5
	auths := make([]*Auth, n)
	for i := range auths {
		a, err := New(node.ID(i), n, []byte("fuzz-open"))
		if err != nil {
			f.Fatal(err)
		}
		auths[i] = a
	}
	f.Fuzz(func(t *testing.T, data []byte, from int64, at uint8, pick uint32) {
		rx := auths[at%n]
		if got, err := rx.Open(node.ID(from), data); !errors.Is(err, ErrBadMAC) || got != nil {
			t.Fatalf("arbitrary %d bytes opened under sender %d: %x, %v", len(data), from, got, err)
		}

		sender := node.ID(uint64(from) % n)
		sealed := auths[sender].AppendSeal(rx.self, nil, data)
		if len(sealed) != len(data)+MACSize {
			t.Fatalf("sealed %d bytes into %d, want +%d", len(data), len(sealed), MACSize)
		}
		got, err := rx.Open(sender, sealed)
		if err != nil || !bytes.Equal(got, data) || len(got) > 0 && &got[0] != &sealed[0] {
			t.Fatalf("sealed frame opened to %x, %v; want the payload %x in place", got, err, data)
		}
		for other := node.ID(-1); other <= n; other++ {
			if other != sender {
				if _, err := rx.Open(other, sealed); !errors.Is(err, ErrBadMAC) {
					t.Fatalf("frame sealed by %v opened under %v", sender, other)
				}
			}
		}
		if sender != rx.self {
			if _, err := auths[sender].Open(rx.self, sealed); !errors.Is(err, ErrBadMAC) {
				t.Fatalf("frame sealed by %v for %v opened when reflected back", sender, rx.self)
			}
		}
		if _, err := rx.Open(sender, sealed[:int(pick)%len(sealed)]); !errors.Is(err, ErrBadMAC) {
			t.Fatalf("sealed frame cut to %d of %d bytes still opened", int(pick)%len(sealed), len(sealed))
		}
		bit := int(pick) % (8 * len(sealed))
		sealed[bit/8] ^= 1 << (bit % 8)
		if _, err := rx.Open(sender, sealed); !errors.Is(err, ErrBadMAC) {
			t.Fatalf("sealed frame with bit %d flipped still opened", bit)
		}
	})
}
