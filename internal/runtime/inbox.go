package runtime

import (
	"bytes"
	"sync"
	"sync/atomic"

	"delphi/internal/auth"
	"delphi/internal/node"
	"delphi/internal/obs"
)

// inbox is a growable ring buffer of inbound frames: the per-node mailbox
// behind every transport's Recv. Unlike a buffered channel it keeps FIFO
// under overflow (the ring grows, so no sender parks and none overtakes
// another), costs one mutexed append/pop per frame, and doubles as the
// frame-buffer freelist: producers borrow buffers sized for their frame
// (getBuf) and the consumer returns them once a frame is processed
// (recycle), so steady-state traffic allocates nothing.
//
// put never blocks; get blocks until a frame arrives, the inbox closes, or
// the caller's stop channel closes. Closing wakes every waiting getter;
// frames already accepted remain receivable after close (matching the
// drained-then-closed semantics of a closed Go channel).
type inbox struct {
	mu     sync.Mutex
	buf    []Frame
	head   int // index of the oldest frame
	count  int
	closed bool
	// wake carries "the ring may have changed" tokens to blocked getters.
	// Capacity 1: put drops the token when one is already pending, and
	// getters re-check the ring in a loop, so spurious wakeups are safe
	// and lost wakeups impossible.
	wake chan struct{}
	// free is the bounded frame-buffer freelist (see getBuf/recycle).
	free [][]byte
	// hw, when set, ratchets the inbox's high-water occupancy into a shared
	// gauge, and stale counts the frames recv filtered out. Nil (free no-ops)
	// unless a recorder is attached upstream.
	hw    *obs.Gauge
	stale *obs.Counter
	// route, when set, takes every frame put is offered, on the producer's
	// goroutine, instead of the ring (an InstanceMux's tag router on a
	// fabric slot); frames queued before it was set stay queued.
	route atomic.Pointer[func(Frame)]
}

// inboxFreeCap bounds the freelist length; inboxBufCap bounds the capacity
// of any recycled buffer so one oversized frame cannot pin memory forever.
const (
	inboxFreeCap = 256
	inboxBufCap  = 64 << 10
)

// newInbox returns an inbox with the given initial ring capacity.
func newInbox(capHint int) *inbox {
	if capHint < 16 {
		capHint = 16
	}
	return &inbox{
		buf:  make([]Frame, capHint),
		wake: make(chan struct{}, 1),
	}
}

// put appends f, growing the ring if full, or hands it to the route. It
// reports false — without accepting the frame — once the inbox is closed.
func (b *inbox) put(f Frame) bool {
	if route := b.route.Load(); route != nil {
		(*route)(f)
		return true
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false
	}
	if b.count == len(b.buf) {
		b.grow()
	}
	b.buf[(b.head+b.count)%len(b.buf)] = f
	b.count++
	n := b.count
	b.mu.Unlock()
	b.hw.Max(int64(n))
	b.signal()
	return true
}

// grow doubles the ring, unrolling the wrap. Caller holds b.mu.
func (b *inbox) grow() {
	next := make([]Frame, 2*len(b.buf))
	n := copy(next, b.buf[b.head:])
	copy(next[n:], b.buf[:b.head])
	b.buf = next
	b.head = 0
}

// signal posts a non-blocking wakeup token.
func (b *inbox) signal() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// get returns the next frame in arrival order. It blocks until one is
// available and reports false when the inbox is closed and drained, or when
// stop closes first. A nil stop never fires.
func (b *inbox) get(stop <-chan struct{}) (Frame, bool) {
	for {
		if f, ok := b.tryGet(); ok {
			return f, true
		}
		b.mu.Lock()
		empty, closed := b.count == 0, b.closed
		b.mu.Unlock()
		if closed && empty {
			// Cascade the wakeup so every other blocked getter (a driver
			// overlapping a session drainer during teardown) also observes
			// the close instead of sleeping forever.
			b.signal()
			return Frame{}, false
		}
		if !empty {
			continue
		}
		select {
		case <-b.wake:
		case <-stop:
			return Frame{}, false
		}
	}
}

// tryGet pops the next frame without blocking.
func (b *inbox) tryGet() (Frame, bool) {
	b.mu.Lock()
	if b.count == 0 {
		b.mu.Unlock()
		return Frame{}, false
	}
	f := b.buf[b.head]
	b.buf[b.head] = Frame{} // drop the reference for GC
	b.head = (b.head + 1) % len(b.buf)
	b.count--
	if len(b.buf) >= inboxShrinkMin && b.count <= len(b.buf)/8 {
		b.shrink()
	}
	b.mu.Unlock()
	return f, true
}

// recv is get (block set) or tryGet behind an endpoint's suffix filter: with
// want non-nil it passes on only frames whose trailing plaintext bytes equal
// want, stripped of them; any other frame — a straggler of another epoch of
// a persistent fabric — is recycled and counted in stale, never returned.
func (b *inbox) recv(stop <-chan struct{}, block bool, want []byte) (Frame, bool) {
	for {
		f, ok := b.tryGet()
		if !ok && block {
			f, ok = b.get(stop)
		}
		if !ok || want == nil {
			return f, ok
		}
		if bytes.HasSuffix(f.Data, want) {
			f.Data = f.Data[:len(f.Data)-len(want)]
			return f, true
		}
		b.stale.Inc()
		b.recycle(f.Data)
	}
}

// putSealed seals frame for peer to under a into a buffer from this inbox's
// own pool — the receiver hands it back after delivery, so steady-state
// sends are alloc-free — appends the plaintext suffix, and enqueues the
// result as a frame from from. It reports false if the inbox is closed.
func (b *inbox) putSealed(from, to node.ID, a *auth.Auth, frame, suffix []byte) bool {
	sealed := a.AppendSeal(to, b.getBuf(len(frame) + auth.MACSize + len(suffix))[:0], frame)
	return b.put(Frame{From: from, Data: append(sealed, suffix...)})
}

// inboxShrinkMin is the smallest ring the pop path will halve. Shrinking at
// ≤1/8 occupancy while growth doubles at full leaves a 4x hysteresis band,
// so a ring oscillating around one size never thrashes between the two.
const inboxShrinkMin = 128

// shrink halves the ring, unrolling the wrap. A long-lived inbox otherwise
// keeps the high-water ring of its worst burst forever — for a session
// hosting thousands of rounds, that is a per-slot leak proportional to peak
// concurrency, not current load. Caller holds b.mu.
func (b *inbox) shrink() {
	next := make([]Frame, len(b.buf)/2)
	for i := 0; i < b.count; i++ {
		next[i] = b.buf[(b.head+i)%len(b.buf)]
	}
	b.buf = next
	b.head = 0
}

// close marks the inbox closed, drops its route and wakes every blocked
// getter. Frames already accepted stay receivable; put rejects from now on.
// Idempotent.
func (b *inbox) close() {
	b.route.Store(nil)
	b.mu.Lock()
	b.closed = true
	b.free = nil
	b.mu.Unlock()
	b.signal()
}

// getBuf returns a frame buffer of length n, reusing a recycled one when a
// large enough buffer is on the freelist.
func (b *inbox) getBuf(n int) []byte {
	b.mu.Lock()
	for i := len(b.free) - 1; i >= 0; i-- {
		if cap(b.free[i]) >= n {
			buf := b.free[i]
			b.free[i] = b.free[len(b.free)-1]
			b.free[len(b.free)-1] = nil
			b.free = b.free[:len(b.free)-1]
			b.mu.Unlock()
			return buf[:n]
		}
	}
	b.mu.Unlock()
	if n < 64 {
		return make([]byte, n, 64)
	}
	return make([]byte, n)
}

// recycle returns a frame buffer to the freelist. Callers must be done with
// every alias of buf: the next getBuf hands it to another frame.
func (b *inbox) recycle(buf []byte) {
	if cap(buf) == 0 || cap(buf) > inboxBufCap {
		return
	}
	b.mu.Lock()
	if !b.closed && len(b.free) < inboxFreeCap {
		b.free = append(b.free, buf)
	}
	b.mu.Unlock()
}
