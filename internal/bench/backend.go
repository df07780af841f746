package bench

import (
	"fmt"
	"sync"

	"delphi/internal/backend"
	"delphi/internal/run"
)

// The run layer's names perf/ reaches through bench, until it imports
// internal/run itself (ROADMAP item 2). bench's own code names them by run.
type (
	RunSpec        = run.RunSpec
	RunStats       = run.RunStats
	Protocol       = run.Protocol
	BackendKind    = run.BackendKind
	BackendSession = run.BackendSession
	ServiceRunner  = run.ServiceRunner
)

const (
	ProtoDelphi = run.ProtoDelphi
	ProtoFIN    = run.ProtoFIN
	ProtoDolev  = run.ProtoDolev
	BackendSim  = run.BackendSim
	BackendTCP  = run.BackendTCP
)

// Run is run.Run.
func Run(spec run.RunSpec) (*run.RunStats, error) { return run.Run(spec) }

// TrialSeed is run.TrialSeed.
func TrialSeed(base int64, trial int) int64 { return run.TrialSeed(base, trial) }

// BackendCaps is what perf's traced pass declares when it registers its
// kind through MustRegisterBackend; nothing reads it. It goes with the
// MustRegister functions once perf stops registering (ROADMAP item 2).
type BackendCaps struct{ WallClock bool }

// SessionSupport is a backend's persistent-session opener: the sim, live and
// tcp rows carry one, and perf's traced pass adds its own through
// MustRegisterBackendSessions.
type SessionSupport struct {
	// Key maps a spec to its session cell key: specs with equal keys may
	// share one session (e.g. the tcp backend keys on n — its listeners
	// fit any trial of the same cluster size).
	Key func(run.RunSpec) string
	// Open opens a session able to run every spec sharing Key(spec).
	Open func(run.RunSpec) (run.BackendSession, error)
}

// backendRow is one backend table row: a backend's one-shot runner
// and its optional session and service openers.
type backendRow struct {
	run      func(run.RunSpec) (*run.RunStats, error)
	sessions *SessionSupport
	service  run.ServiceOpen
}

// byN keys a live kind's sessions: a fabric fits any trial of its size.
func byN(spec run.RunSpec) string { return fmt.Sprintf("n=%d", spec.N) }

// backendTab holds every backend the engine can run specs on: the
// simulator, the live kinds, and any kind perf's traced pass registers.
var (
	backendMu  sync.RWMutex
	backendTab = map[run.BackendKind]backendRow{
		run.BackendSim: {
			run:      run.Run,
			sessions: &SessionSupport{Key: func(run.RunSpec) string { return "sim" }, Open: run.OpenSim},
		},
		run.BackendLive: {
			run:      backend.Live{}.Run,
			sessions: &SessionSupport{Key: byN, Open: backend.Live{}.Open},
			service:  backend.Live{}.OpenService,
		},
		run.BackendTCP: {
			run:      backend.TCP{}.Run,
			sessions: &SessionSupport{Key: byN, Open: backend.TCP{}.Open},
			service:  backend.TCP{}.OpenService,
		},
	}
)

// MustRegisterBackend installs an execution backend under kind, panicking
// when kind is built in or already registered or run is nil. It exists for
// perf's traced pass, and goes once perf stops registering (ROADMAP item 2).
func MustRegisterBackend(kind run.BackendKind, _ BackendCaps, fn func(run.RunSpec) (*run.RunStats, error)) {
	if fn == nil {
		panic(fmt.Errorf("bench: backend %q: nil runner", kind))
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backendTab[kind]; dup || kind == "" {
		panic(fmt.Errorf("bench: backend %q is built in or already registered", kind))
	}
	backendTab[kind] = backendRow{run: fn}
}

// MustRegisterBackendSessions installs persistent-session support for a
// kind MustRegisterBackend registered, panicking on error. Like it, it
// exists for perf's traced pass.
func MustRegisterBackendSessions(kind run.BackendKind, s SessionSupport) {
	if s.Key == nil || s.Open == nil {
		panic(fmt.Errorf("bench: backend %q: session support needs Key and Open", kind))
	}
	amendBackend(kind, func(b *backendRow) bool {
		ok := b.sessions == nil
		b.sessions = &s
		return ok
	})
}

// MustRegisterServiceBackend installs concurrent-instance service support
// for a kind MustRegisterBackend registered, panicking on error. Like it, it
// exists for perf's traced pass.
func MustRegisterServiceBackend(kind run.BackendKind, open run.ServiceOpen) {
	if open == nil {
		panic(fmt.Errorf("bench: service backend %q: nil opener", kind))
	}
	amendBackend(kind, func(b *backendRow) bool {
		ok := b.service == nil
		b.service = open
		return ok
	})
}

// amendBackend adds one opener to a copy of kind's row and stores it. A
// kind that is the simulator or unregistered, or a row that already had the
// opener (set reports false), is a build defect, so it panics.
func amendBackend(kind run.BackendKind, set func(*backendRow) bool) {
	backendMu.Lock()
	defer backendMu.Unlock()
	b, ok := backendTab[kind]
	if !ok || kind == run.BackendSim || !set(&b) {
		panic(fmt.Errorf("bench: backend %q: not registered, or the opener already is", kind))
	}
	backendTab[kind] = b
}

// lookupBackend returns kind's row; the empty kind is the simulator.
func lookupBackend(kind run.BackendKind) (backendRow, error) {
	if kind == "" {
		kind = run.BackendSim
	}
	backendMu.RLock()
	defer backendMu.RUnlock()
	b, ok := backendTab[kind]
	if !ok {
		return b, fmt.Errorf("bench: unknown backend %q (want sim, live or tcp)", kind)
	}
	return b, nil
}

// ParseBackend returns the backend kind named name, or an error when the
// engine cannot run it.
func ParseBackend(name string) (run.BackendKind, error) {
	_, err := lookupBackend(run.BackendKind(name))
	return run.BackendKind(name), err
}

// runSpec dispatches a spec to its backend, filling the fields it leaves
// zero from e: Backend, then SimWorkers. It routes the spec through c's
// persistent session for its cell when the backend supports sessions
// (c == nil forces per-trial setup). Sessions amortise setup only — a
// trial's result is identical either way, so worker count and session
// distribution never change measurements. The simulator path is exactly
// run.Run.
func (e *Engine) runSpec(spec run.RunSpec, c *sessionCache) (*run.RunStats, error) {
	kind := spec.Backend
	if kind == "" {
		kind = e.Backend
	}
	isSim := kind == "" || kind == run.BackendSim
	if !isSim {
		spec.Backend = kind
	}
	if spec.SimWorkers == 0 {
		spec.SimWorkers = e.SimWorkers
	}
	b, err := lookupBackend(kind)
	if err != nil {
		return nil, err
	}
	var st *run.RunStats
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
	m map[string]run.BackendSession
}

func newSessionCache() *sessionCache {
	return &sessionCache{m: map[string]run.BackendSession{}}
}

// run executes spec through the cached (or freshly opened) session for its
// cell. A failed trial closes and drops its session: the next trial of the
// cell reopens cleanly instead of inheriting a possibly-wedged substrate.
func (c *sessionCache) run(sup *SessionSupport, kind run.BackendKind, spec run.RunSpec) (*run.RunStats, error) {
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
