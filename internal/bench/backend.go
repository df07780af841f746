package bench

import (
	"fmt"
	"sort"
	"sync"
)

// BackendKind names an execution backend for a RunSpec or scenario cell.
// The zero value selects the simulator, so existing specs and scenarios
// behave exactly as before the backend axis existed.
type BackendKind string

// The backend kinds the harness knows about. Only the simulator is built
// into this package; the live kinds are registered by internal/backend
// (import it — cmd/experiments and the backend tests do — before running
// live cells).
const (
	// BackendSim is the discrete-event simulator (bench.Run). It is also
	// what the empty string means.
	BackendSim BackendKind = "sim"
	// BackendLive is an in-process goroutine cluster over runtime.Hub.
	BackendLive BackendKind = "live"
	// BackendTCP is a loopback TCP cluster over a runtime.TCPNet mesh.
	BackendTCP BackendKind = "tcp"
)

// String implements fmt.Stringer; the zero value renders as "sim".
func (k BackendKind) String() string {
	if k == "" {
		return string(BackendSim)
	}
	return string(k)
}

// BackendCaps declares what a backend's measurements mean.
type BackendCaps struct {
	// Deterministic backends produce byte-identical RunStats for a given
	// RunSpec across reruns and worker counts. Only deterministic
	// backends participate in byte-identity checks.
	Deterministic bool
	// WallClock backends measure real elapsed time: RunStats.Latency and
	// RunStats.Wall are wall-clock durations subject to scheduler noise,
	// not virtual time.
	WallClock bool
}

// BackendFunc executes one RunSpec on some execution backend.
type BackendFunc func(RunSpec) (*RunStats, error)

// BackendSession executes consecutive RunSpecs with setup amortised across
// them: bound listeners, warm connections, reusable simulator storage.
// Sessions are opened by the engine (one per cell key per worker), reused
// across every trial the worker runs for that cell, and closed when the
// batch ends — or immediately after a failed trial, so one crashed cluster
// can never poison later trials. A session is used by one goroutine at a
// time; it need not be safe for concurrent use.
type BackendSession interface {
	// Run executes one spec on the session's persistent substrate.
	Run(RunSpec) (*RunStats, error)
	// Close releases the session's resources (listeners, connections,
	// goroutines). It must be safe to call after a failed Run.
	Close() error
}

// SessionSupport declares a backend's persistent-session capability.
type SessionSupport struct {
	// Key maps a spec to its session cell key: specs with equal keys may
	// share one session (e.g. the tcp backend keys on n — its listeners
	// fit any trial of the same cluster size).
	Key func(RunSpec) string
	// Open opens a session able to run every spec sharing Key(spec).
	Open func(RunSpec) (BackendSession, error)
}

// registeredBackend is one registry row: a backend's runner, its
// capabilities, and the optional session and service openers.
type registeredBackend struct {
	caps     BackendCaps
	run      BackendFunc
	sessions *SessionSupport
	service  ServiceOpen
}

var (
	backendMu  sync.RWMutex
	backendTab = map[BackendKind]registeredBackend{}
)

// RegisterBackend installs an execution backend under kind. The simulator
// kinds ("", "sim") are built in and cannot be replaced; registering the
// same kind twice is a programming error.
func RegisterBackend(kind BackendKind, caps BackendCaps, run BackendFunc) error {
	if kind == "" || kind == BackendSim {
		return fmt.Errorf("bench: backend %q is built in", kind)
	}
	if run == nil {
		return fmt.Errorf("bench: backend %q: nil runner", kind)
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backendTab[kind]; dup {
		return fmt.Errorf("bench: backend %q already registered", kind)
	}
	backendTab[kind] = registeredBackend{caps: caps, run: run}
	return nil
}

// MustRegisterBackend is RegisterBackend panicking on error; intended for
// package initialisation, where a duplicate is a build defect.
func MustRegisterBackend(kind BackendKind, caps BackendCaps, run BackendFunc) {
	if err := RegisterBackend(kind, caps, run); err != nil {
		panic(err)
	}
}

// MustRegisterBackendSessions installs persistent-session support for an
// already-registered backend kind, panicking on error. The simulator's
// session support (scratch reuse) is built in and cannot be replaced.
func MustRegisterBackendSessions(kind BackendKind, s SessionSupport) {
	if s.Key == nil || s.Open == nil {
		panic(fmt.Errorf("bench: backend %q: session support needs Key and Open", kind))
	}
	amendBackend(kind, "session support", func(b *registeredBackend) bool {
		if b.sessions != nil {
			return false
		}
		b.sessions = &s
		return true
	})
}

// MustRegisterServiceBackend installs concurrent-instance service support
// for an already-registered wall-clock backend, panicking on error. The
// simulator's service model is built in.
func MustRegisterServiceBackend(kind BackendKind, open ServiceOpen) {
	if open == nil {
		panic(fmt.Errorf("bench: service backend %q: nil opener", kind))
	}
	amendBackend(kind, "service support", func(b *registeredBackend) bool {
		if b.service != nil {
			return false
		}
		b.service = open
		return true
	})
}

// amendBackend adds one opener to kind's registry row; set reports false
// when the row already has it. Every failure is a build defect, so it
// panics.
func amendBackend(kind BackendKind, what string, set func(*registeredBackend) bool) {
	if kind == "" || kind == BackendSim {
		panic(fmt.Errorf("bench: backend %q: %s is built in", kind, what))
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	b, ok := backendTab[kind]
	if !ok {
		panic(fmt.Errorf("bench: backend %q not registered", kind))
	}
	if !set(&b) {
		panic(fmt.Errorf("bench: backend %q: %s already registered", kind, what))
	}
	backendTab[kind] = b
}

// lookupBackend returns kind's registry row; the simulator's is built in.
func lookupBackend(kind BackendKind) (registeredBackend, bool) {
	if kind == "" || kind == BackendSim {
		return registeredBackend{caps: BackendCaps{Deterministic: true}, run: Run, sessions: &simSessions}, true
	}
	backendMu.RLock()
	defer backendMu.RUnlock()
	b, ok := backendTab[kind]
	return b, ok
}

// BackendSessionful reports whether kind amortises setup across trials via
// persistent sessions.
func BackendSessionful(kind BackendKind) bool {
	b, _ := lookupBackend(kind)
	return b.sessions != nil
}

// BackendRegistered reports whether kind can execute specs in this process.
func BackendRegistered(kind BackendKind) bool {
	_, ok := lookupBackend(kind)
	return ok
}

// BackendCapsOf returns kind's capabilities; ok is false for unregistered
// kinds.
func BackendCapsOf(kind BackendKind) (caps BackendCaps, ok bool) {
	b, ok := lookupBackend(kind)
	return b.caps, ok
}

// RegisteredBackends lists every runnable kind in sorted order, the
// simulator first.
func RegisteredBackends() []BackendKind {
	backendMu.RLock()
	defer backendMu.RUnlock()
	out := make([]BackendKind, 0, len(backendTab)+1)
	for k := range backendTab {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return append([]BackendKind{BackendSim}, out...)
}

// errUnregistered names a kind no backend registered.
func errUnregistered(kind BackendKind) error {
	return fmt.Errorf("bench: backend %q not registered (import delphi/internal/backend)", kind)
}

// runSpec dispatches a spec to its backend, filling the fields it leaves
// zero from e: Backend, then SimWorkers. It routes the spec through c's
// persistent session for its cell when the backend supports sessions
// (c == nil forces per-trial setup). Sessions amortise setup only — a
// trial's result is identical either way, so worker count and session
// distribution never change measurements. The simulator path is exactly
// Run.
func (e *Engine) runSpec(spec RunSpec, c *sessionCache) (*RunStats, error) {
	kind := spec.Backend
	if kind == "" {
		kind = e.Backend
	}
	isSim := kind == "" || kind == BackendSim
	if !isSim {
		spec.Backend = kind
	}
	if spec.SimWorkers == 0 {
		spec.SimWorkers = e.SimWorkers
	}
	b, ok := lookupBackend(kind)
	if !ok {
		return nil, errUnregistered(kind)
	}
	var st *RunStats
	var err error
	if c != nil && b.sessions != nil {
		st, err = c.run(b.sessions, kind, spec)
	} else {
		st, err = b.run(spec)
	}
	if err != nil && !isSim {
		return nil, fmt.Errorf("backend %s: %w", kind, err)
	}
	return st, err
}

// sessionCache holds one engine worker's open sessions, keyed by
// "<kind>\x00<cell key>". Every worker owns its own cache, so sessions are
// single-goroutine by construction.
type sessionCache struct {
	m map[string]BackendSession
}

func newSessionCache() *sessionCache {
	return &sessionCache{m: map[string]BackendSession{}}
}

// run executes spec through the cached (or freshly opened) session for its
// cell. A failed trial closes and drops its session: the next trial of the
// cell reopens cleanly instead of inheriting a possibly-wedged substrate.
func (c *sessionCache) run(sup *SessionSupport, kind BackendKind, spec RunSpec) (*RunStats, error) {
	key := string(kind) + "\x00" + sup.Key(spec)
	s, ok := c.m[key]
	if !ok {
		var err error
		s, err = sup.Open(spec)
		if err != nil {
			return nil, err
		}
		c.m[key] = s
	}
	st, err := s.Run(spec)
	if err != nil {
		s.Close()
		delete(c.m, key)
		return nil, err
	}
	return st, nil
}

// close closes every open session. Close errors are dropped: sessions are
// perf plumbing, and the trials' results (or their errors) already carry
// the signal.
func (c *sessionCache) close() {
	for k, s := range c.m {
		s.Close()
		delete(c.m, k)
	}
}
