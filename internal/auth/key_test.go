package auth

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestZeroByteKey: a channel key whose first chaining-value byte is 0, as one
// in 256 is, is derived once like any other. Whether a key is derived is a
// flag of its own: were it read off that byte, this key would be derived
// again on every use, here from a master the test has since zeroed, and its
// tags would stop matching.
func TestZeroByteKey(t *testing.T) {
	for i := range 4096 {
		master := binary.LittleEndian.AppendUint64([]byte("zero-byte"), uint64(i))
		a, err := New(0, 2, master)
		if err != nil {
			t.Fatal(err)
		}
		frame := []byte("frame")
		want := a.Seal(1, frame)
		if a.peers[1].cv[0][0] != 0 {
			continue
		}
		a.master = key{derived: true}
		if got := a.Seal(1, frame); !bytes.Equal(got, want) {
			t.Fatalf("master %d: the key with a zero byte sealed %x, then %x", i, want, got)
		}
		return
	}
	t.Fatal("no key with a zero first byte in 4096 masters")
}
