// Package obs is the repository's unified observability layer: phase-level
// trace events, a metrics registry, and exporters, shared by the simulator,
// the live runtimes, and the continuous-service mode.
//
// The design constraint that shapes everything here is "zero cost when
// disabled": every handle type (*Recorder, *Track, *Counter, *Gauge,
// *Histogram) is nil-safe, and a nil handle's methods return immediately
// without allocating. Instrumented code therefore resolves its handles once
// (at Init / construction time) and calls them unconditionally on the hot
// path; with no recorder attached the calls compile down to a nil check.
// Regression tests in the sim, runtime, and bench packages pin the disabled
// paths at 0 allocs/op.
//
// Clocks. A Track records timestamps either in virtual time — it reads a
// caller-owned *int64 that the simulator advances to each delivery's
// virtual nanosecond — or in wall time (nanoseconds since the Recorder's
// epoch) when no clock pointer is given. This single model lets one
// instrumentation seam serve both the deterministic simulator and the
// live/tcp runtimes.
//
// Determinism. On the sim backend the trace doubles as a determinism
// oracle: tracks are created in a deterministic order, each track is
// single-writer and appends in delivery order, and WriteTrace emits tracks
// in creation order — so a fixed-seed sim run's trace bytes are identical
// across reruns and across parallel worker counts. Wall-clock measurements
// (barrier waits, flush durations) must go to the metrics registry, never
// into a sim-backed track.
//
// The package is intentionally dependency-free (stdlib only) so that
// internal/node can expose an optional tracing capability on its Env
// without an import cycle.
package obs

import (
	"sync"
	"time"
)

// Recorder owns a run's trace tracks and metrics registry. The zero value
// is not usable; call New. A nil *Recorder is the disabled state: every
// method is a no-op and every derived handle is nil.
type Recorder struct {
	epoch time.Time

	mu     sync.Mutex
	tracks []*Track

	reg registry
}

// New returns an enabled recorder whose wall-clock epoch is now.
func New() *Recorder {
	return &Recorder{epoch: time.Now()}
}

// NewTrack creates a single-writer track. now, when non-nil, is the track's
// virtual clock: the owner (the simulator) stores the current virtual time
// in nanoseconds there before invoking instrumented code. A nil now selects
// wall time relative to the recorder's epoch. Returns nil on a nil
// recorder. The caller must guarantee single-writer discipline; use
// SharedTrack for multi-goroutine emitters.
func (r *Recorder) NewTrack(name string, now *int64) *Track {
	if r == nil {
		return nil
	}
	t := &Track{rec: r, name: name, now: now, epoch: r.epoch}
	r.mu.Lock()
	t.id = int32(len(r.tracks))
	r.tracks = append(r.tracks, t)
	r.mu.Unlock()
	return t
}

// SharedTrack creates a mutex-guarded wall-clock track safe for concurrent
// emitters (transport read loops, subscriber goroutines). Returns nil on a
// nil recorder.
func (r *Recorder) SharedTrack(name string) *Track {
	t := r.NewTrack(name, nil)
	if t != nil {
		t.shared = true
	}
	return t
}

// WallNS converts an absolute wall time to the recorder's trace clock
// (nanoseconds since epoch). Returns 0 on a nil recorder.
func (r *Recorder) WallNS(t time.Time) int64 {
	if r == nil {
		return 0
	}
	return t.Sub(r.epoch).Nanoseconds()
}

// Event is one recorded trace event. Dur < 0 marks an instant event.
type Event struct {
	Name string
	TS   int64 // ns on the track's clock
	Dur  int64 // ns; negative = instant
	A, B int64 // two free-form integer arguments
}

// Track is an ordered stream of events sharing one clock and one exporter
// lane (a Perfetto "thread"). All methods are nil-safe no-ops on a nil
// track.
type Track struct {
	rec    *Recorder
	id     int32
	name   string
	now    *int64
	epoch  time.Time
	shared bool
	mu     sync.Mutex
	events []Event
}

func (t *Track) clock() int64 {
	if t.now != nil {
		return *t.now
	}
	return time.Since(t.epoch).Nanoseconds()
}

// Now returns the track's current clock reading (virtual or wall), or 0 on
// a nil track. Use it to capture span start timestamps.
func (t *Track) Now() int64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// Instant records a point event at the current clock reading.
func (t *Track) Instant(name string, a, b int64) {
	if t == nil {
		return
	}
	t.append(Event{Name: name, TS: t.clock(), Dur: -1, A: a, B: b})
}

// Span records a complete span from start (a previous Now reading) to the
// current clock reading.
func (t *Track) Span(name string, start, a, b int64) {
	if t == nil {
		return
	}
	t.SpanAt(name, start, t.clock(), a, b)
}

// SpanAt records a complete span with explicit endpoints. Ends before
// starts are clamped to zero-duration spans.
func (t *Track) SpanAt(name string, start, end, a, b int64) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.append(Event{Name: name, TS: start, Dur: end - start, A: a, B: b})
}

func (t *Track) append(e Event) {
	if t.shared {
		t.mu.Lock()
		t.events = append(t.events, e)
		t.mu.Unlock()
		return
	}
	t.events = append(t.events, e)
}

// Events returns a snapshot copy of the track's recorded events; nil on a
// nil track.
func (t *Track) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Name returns the track's display name; "" on a nil track.
func (t *Track) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Tracks returns the recorder's tracks in creation order; nil on a nil
// recorder. The slice is a copy, the tracks are live handles.
func (r *Recorder) Tracks() []*Track {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Track, len(r.tracks))
	copy(out, r.tracks)
	return out
}

// EventCount returns how many events the recorder holds across all tracks.
func (r *Recorder) EventCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	tracks := r.tracks
	r.mu.Unlock()
	n := 0
	for _, t := range tracks {
		t.mu.Lock()
		n += len(t.events)
		t.mu.Unlock()
	}
	return n
}
