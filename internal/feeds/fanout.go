package feeds

import (
	"math"
	"sync"
	"time"

	"delphi/internal/dist"
)

// Update is one decided oracle round pushed out to subscribers.
type Update struct {
	// Round is the agreement round that produced the value.
	Round int64
	// Value is the decided oracle output.
	Value float64
	// At anchors the staleness clock. The service-mode publisher sets it to
	// the round's arrival time, so delivery staleness is end to end:
	// queueing + agreement + fan-out transit.
	At time.Time
	// Decided, when set, is the instant the round's agreement finished —
	// the boundary between the protocol and fan-out segments of staleness.
	// Tracing uses it to anchor the fan-out span; zero is fine otherwise.
	Decided time.Time
}

// Fanout distributes decided oracle rounds to any number of subscribers.
// It is the service mode's last hop: the oracle cluster decides, the
// service publishes, and subscriber staleness is measured from Update.At
// to delivery.
//
// Semantics, chosen to model real feed consumers:
//
//   - Total order. Publish is serialised, so every subscriber observes the
//     same global update sequence (gaps allowed, reordering never).
//   - Bounded buffers, drop-oldest. A slow subscriber sheds its *oldest*
//     undelivered updates first — a price consumer wants the freshest
//     value, not a faithful replay — and the shed count is observable per
//     subscriber (Dropped). Publishers are never blocked by a slow
//     subscriber.
//   - Drain on close. Close stops future publishes; updates already
//     buffered remain receivable, then Recv reports false.
type Fanout struct {
	mu     sync.Mutex
	subs   map[*Subscriber]struct{}
	closed bool
}

// NewFanout returns an empty fan-out stage.
func NewFanout() *Fanout {
	return &Fanout{subs: make(map[*Subscriber]struct{})}
}

// Subscribe attaches a subscriber with the given buffer capacity (minimum
// 1). Subscribing after Close returns an already-closed subscriber whose
// Recv reports false immediately.
func (f *Fanout) Subscribe(buffer int) *Subscriber {
	if buffer < 1 {
		buffer = 1
	}
	s := &Subscriber{
		buf:  make([]Update, buffer),
		wake: make(chan struct{}, 1),
	}
	f.mu.Lock()
	if f.closed {
		s.closed = true
	} else {
		f.subs[s] = struct{}{}
	}
	f.mu.Unlock()
	return s
}

// Publish delivers u to every current subscriber. Concurrent publishers are
// serialised, so all subscribers agree on the update order. Publishing on a
// closed fan-out is a silent no-op (the race between a deciding round and
// service shutdown is benign).
func (f *Fanout) Publish(u Update) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	for s := range f.subs {
		s.put(u)
	}
}

// Close stops future publishes and marks every subscriber closed; buffered
// updates stay receivable (drain-then-false). Idempotent.
func (f *Fanout) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	subs := f.subs
	f.subs = make(map[*Subscriber]struct{})
	f.mu.Unlock()
	for s := range subs {
		s.close()
	}
}

// Subscriber is one consumer's bounded view of the fan-out stream.
type Subscriber struct {
	mu      sync.Mutex
	buf     []Update // fixed-capacity ring
	head    int
	count   int
	dropped uint64
	closed  bool
	// wake carries "the ring may have changed" tokens to a blocked Recv;
	// capacity 1 with re-check loops, as in the transport inboxes.
	wake chan struct{}
}

// put appends u, shedding the oldest buffered update when full. Caller does
// not hold s.mu.
func (s *Subscriber) put(u Update) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.count == len(s.buf) {
		s.head = (s.head + 1) % len(s.buf)
		s.count--
		s.dropped++
	}
	s.buf[(s.head+s.count)%len(s.buf)] = u
	s.count++
	s.mu.Unlock()
	s.signal()
}

func (s *Subscriber) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Recv blocks for the next update in publish order. It reports false when
// the subscriber is closed and drained, or when stop
// closes first; a nil stop never fires.
func (s *Subscriber) Recv(stop <-chan struct{}) (Update, bool) {
	for {
		if u, ok := s.TryRecv(); ok {
			return u, true
		}
		s.mu.Lock()
		empty, closed := s.count == 0, s.closed
		s.mu.Unlock()
		if closed && empty {
			s.signal() // cascade so sibling waiters also observe the close
			return Update{}, false
		}
		if !empty {
			continue
		}
		select {
		case <-s.wake:
		case <-stop:
			return Update{}, false
		}
	}
}

// TryRecv pops the next update without blocking.
func (s *Subscriber) TryRecv() (Update, bool) {
	s.mu.Lock()
	if s.count == 0 {
		s.mu.Unlock()
		return Update{}, false
	}
	u := s.buf[s.head]
	s.head = (s.head + 1) % len(s.buf)
	s.count--
	s.mu.Unlock()
	return u, true
}

// Dropped returns how many updates were shed because this subscriber's
// buffer was full — the fan-out's explicit backpressure accounting.
func (s *Subscriber) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

func (s *Subscriber) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.signal()
}

// Population models a large subscriber base without a goroutine per client:
// each (round, subscriber) pair has a pure-function propagation delay, so a
// service can track a handful of live representative subscribers and extend
// staleness to millions of modeled clients deterministically.
type Population struct {
	// Size is the modeled client count.
	Size int
	// Seed decorrelates populations; the same seed reproduces the same
	// per-client delays.
	Seed int64
	// Base is every client's fixed propagation floor.
	Base time.Duration
	// Jitter draws the client's additional delay, in milliseconds, via its
	// quantile function. Nil means no jitter.
	Jitter dist.Distribution
}

// Delay returns client sub's propagation delay for round — a pure function
// of (Seed, round, sub), so sim-backend staleness is reproducible without
// any shared random stream.
func (p Population) Delay(round int64, sub int) time.Duration {
	d := p.Base
	if p.Jitter != nil {
		u := splitmixUniform(uint64(p.Seed)<<32 ^ uint64(round)*0x9E3779B97F4A7C15 ^ uint64(sub))
		ms := p.Jitter.Quantile(u)
		if !math.IsNaN(ms) && !math.IsInf(ms, 0) && ms > 0 {
			d += time.Duration(ms * float64(time.Millisecond))
		}
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Representatives returns up to max evenly spaced client indices — the
// subset a service instantiates as live subscribers while the rest of the
// population is modeled through Delay.
func (p Population) Representatives(max int) []int {
	if max < 1 || p.Size < 1 {
		return nil
	}
	if p.Size <= max {
		out := make([]int, p.Size)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, max)
	for i := range out {
		out[i] = i * p.Size / max
	}
	return out
}

// splitmixUniform maps a 64-bit state to a uniform in (0,1): the splitmix64
// finaliser, then the 53-bit mantissa trick, nudged off exact 0.
func splitmixUniform(x uint64) float64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	u := float64(x>>11) / (1 << 53)
	if u <= 0 {
		u = 0x1p-53
	}
	return u
}
