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

// registeredBackend pairs a backend's runner with its capabilities.
type registeredBackend struct {
	caps     BackendCaps
	run      BackendFunc
	sessions *SessionSupport
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

// RegisterBackendSessions installs persistent-session support for an
// already-registered backend kind. The simulator's session support (scratch
// reuse) is built in and cannot be replaced.
func RegisterBackendSessions(kind BackendKind, s SessionSupport) error {
	if kind == "" || kind == BackendSim {
		return fmt.Errorf("bench: backend %q sessions are built in", kind)
	}
	if s.Key == nil || s.Open == nil {
		return fmt.Errorf("bench: backend %q: session support needs Key and Open", kind)
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	b, ok := backendTab[kind]
	if !ok {
		return fmt.Errorf("bench: backend %q not registered", kind)
	}
	if b.sessions != nil {
		return fmt.Errorf("bench: backend %q sessions already registered", kind)
	}
	b.sessions = &s
	backendTab[kind] = b
	return nil
}

// MustRegisterBackendSessions is RegisterBackendSessions panicking on error.
func MustRegisterBackendSessions(kind BackendKind, s SessionSupport) {
	if err := RegisterBackendSessions(kind, s); err != nil {
		panic(err)
	}
}

// BackendSessionful reports whether kind amortises setup across trials via
// persistent sessions.
func BackendSessionful(kind BackendKind) bool {
	return sessionSupportOf(kind) != nil
}

// sessionSupportOf returns kind's session support (nil when absent).
func sessionSupportOf(kind BackendKind) *SessionSupport {
	if kind == "" || kind == BackendSim {
		return &simSessions
	}
	backendMu.RLock()
	defer backendMu.RUnlock()
	return backendTab[kind].sessions
}

// BackendRegistered reports whether kind can execute specs in this process.
func BackendRegistered(kind BackendKind) bool {
	if kind == "" || kind == BackendSim {
		return true
	}
	backendMu.RLock()
	defer backendMu.RUnlock()
	_, ok := backendTab[kind]
	return ok
}

// BackendCapsOf returns kind's capabilities; ok is false for unregistered
// kinds.
func BackendCapsOf(kind BackendKind) (caps BackendCaps, ok bool) {
	if kind == "" || kind == BackendSim {
		return BackendCaps{Deterministic: true}, true
	}
	backendMu.RLock()
	defer backendMu.RUnlock()
	b, ok := backendTab[kind]
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

// defaultBackend is where specs without an explicit Backend run; the zero
// value is the simulator.
var defaultBackend BackendKind

// SetDefaultBackend retargets every spec whose Backend field is empty to
// kind — how cmd/experiments' -backend flag moves existing workloads onto a
// live cluster wholesale. It is not safe to call concurrently with running
// experiments. The empty kind (or "sim") restores the simulator.
func SetDefaultBackend(kind BackendKind) error {
	if !BackendRegistered(kind) {
		return fmt.Errorf("bench: backend %q not registered (import delphi/internal/backend)", kind)
	}
	defaultBackend = kind
	return nil
}

// runSpec dispatches a spec to its backend; the engine's workers and the
// sequential path both go through it. The simulator path is exactly Run, so
// specs without a Backend are byte-identical to the pre-axis harness.
func runSpec(spec RunSpec) (*RunStats, error) {
	return runSpecIn(spec, nil)
}

// runSpecIn dispatches a spec, routing it through c's persistent session
// for the spec's cell when the backend supports sessions (c == nil forces
// the per-trial path). Sessions amortise setup only — a trial's result is
// identical either way, so worker count and session distribution never
// change measurements.
func runSpecIn(spec RunSpec, c *sessionCache) (*RunStats, error) {
	kind := spec.Backend
	if kind == "" {
		kind = defaultBackend
	}
	isSim := kind == "" || kind == BackendSim
	if !isSim {
		spec.Backend = kind
	}
	if c != nil {
		if sup := sessionSupportOf(kind); sup != nil {
			st, err := c.run(sup, kind, spec)
			if err != nil && !isSim {
				return nil, fmt.Errorf("backend %s: %w", kind, err)
			}
			return st, err
		}
	}
	if isSim {
		return Run(spec)
	}
	backendMu.RLock()
	b, ok := backendTab[kind]
	backendMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("bench: backend %q not registered (import delphi/internal/backend)", kind)
	}
	st, err := b.run(spec)
	if err != nil {
		return nil, fmt.Errorf("backend %s: %w", kind, err)
	}
	return st, nil
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
