package runtime

import (
	"encoding/binary"
	"errors"
)

// The live transports coalesce every frame a node produces for one peer
// during one protocol step into a single sealed write: a batch envelope.
// An envelope is an ordinary frame whose first byte is BatchType, followed
// by the member frames, each prefixed with its uvarint length:
//
//	[BatchType] ([uvarint len][frame bytes])*
//
// Envelopes are sealed, transmitted, and delivered exactly like single
// frames — one MAC, one length-prefixed TCP write, one inbox hop — and the
// receiving driver unpacks them back into per-message deliveries in order,
// so per-link FIFO is preserved.
//
// BatchType can never collide with a protocol message: wire-type bytes are
// allocated from 1 upward in internal/wire, and the registry rejects 0xFF.

// BatchType is the reserved frame-type byte marking a batch envelope.
const BatchType byte = 0xFF

// ErrBadBatch reports a malformed batch envelope.
var ErrBadBatch = errors.New("runtime: malformed batch envelope")

// IsBatch reports whether frame is a batch envelope.
func IsBatch(frame []byte) bool {
	return len(frame) > 0 && frame[0] == BatchType
}

// AppendBatch appends the envelope encoding of frames to dst and returns
// the extended slice. The result aliases dst's backing array, not frames'.
func AppendBatch(dst []byte, frames [][]byte) []byte {
	dst = append(dst, BatchType)
	for _, f := range frames {
		dst = binary.AppendUvarint(dst, uint64(len(f)))
		dst = append(dst, f...)
	}
	return dst
}

// UnpackBatch calls fn for each member frame of an envelope, in order,
// stopping early if fn returns false. The slices passed to fn alias frame.
// It returns ErrBadBatch if frame is not a well-formed envelope.
func UnpackBatch(frame []byte, fn func(inner []byte) bool) error {
	if !IsBatch(frame) {
		return ErrBadBatch
	}
	rest := frame[1:]
	for len(rest) > 0 {
		ln, n := binary.Uvarint(rest)
		if n <= 0 || ln > uint64(len(rest)-n) {
			return ErrBadBatch
		}
		if !fn(rest[n : n+int(ln)]) {
			return nil
		}
		rest = rest[n+int(ln):]
	}
	return nil
}
