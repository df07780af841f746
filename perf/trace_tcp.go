package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"delphi/internal/auth"
	"delphi/internal/bench"
	"delphi/internal/codec"
	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/runtime"
)

// tracedKind is a backend perf registers with the bench registry for the
// traced pass. It runs specs the way internal/backend's tcp sessions do —
// one persistent runtime.TCPNet, a fresh key per trial, idle slots drained
// between trials; for the service, one runtime.InstanceMux routing
// concurrent rounds by tag — built from the same public runtime pieces, with
// perf's two decorators interposed. The untraced pass never uses it.
const tracedKind bench.BackendKind = "tcp-traced"

// clusterTimeout bounds one traced trial or round, like the backend's.
const clusterTimeout = 60 * time.Second

var (
	registerTraced sync.Once
	// tracedSink is the tracer the registered backend reports to: the bench
	// registry holds one opener per kind for the process's life, while each
	// traced pass has its own tracer.
	tracedSink atomic.Pointer[tracer]
)

// useTracedBackend routes tracedKind's trials to tr.
func useTracedBackend(tr *tracer) {
	registerTraced.Do(func() {
		bench.MustRegisterBackend(tracedKind, bench.BackendCaps{WallClock: true}, func(spec bench.RunSpec) (*bench.RunStats, error) {
			s, err := openTracedSession(spec)
			if err != nil {
				return nil, err
			}
			defer s.Close()
			return s.Run(spec)
		})
		bench.MustRegisterBackendSessions(tracedKind, bench.SessionSupport{
			Key:  func(spec bench.RunSpec) string { return fmt.Sprintf("n=%d", spec.N) },
			Open: openTracedSession,
		})
		bench.MustRegisterServiceBackend(tracedKind, openTracedService)
	})
	tracedSink.Store(tr)
}

// fabric is the part of a traced session and a traced service that is the
// same: the persistent net, the tracer, and the long-lived per-node obs
// tracks the drivers' flush counters hang off.
type fabric struct {
	tr     *tracer
	n      int
	net    *runtime.TCPNet
	tracks []*obs.Track
}

func openFabric(n int, prefix string) (*fabric, error) {
	tr := tracedSink.Load()
	if tr == nil {
		return nil, fmt.Errorf("%s backend used outside a traced pass", tracedKind)
	}
	net, err := runtime.NewTCPNet(n)
	if err != nil {
		return nil, err
	}
	net.Observe(tr.rec)
	f := &fabric{tr: tr, n: n, net: net, tracks: make([]*obs.Track, n)}
	for i := range f.tracks {
		f.tracks[i] = tr.rec.SharedTrack(fmt.Sprintf("%s.node-%d", prefix, i))
	}
	return f, nil
}

// runCluster runs one spec's processes over endpoints the caller supplies
// and assembles its RunStats, with one op's worth of spans.
func (f *fabric) runCluster(spec bench.RunSpec, master string, endpoint runtime.TransportFactory, release func()) (*bench.RunStats, error) {
	tr := f.tr
	ot := tr.beginOp(spec.N)
	t := tr.now()
	procs, err := spec.Processes()
	if err != nil {
		return nil, err
	}
	ot.newNS = tr.now() - t
	ot.add(0, "proc.new", t, t+ot.newNS, 0)
	ot.wrapProcs(procs)
	var honest []node.ID
	for _, i := range spec.HonestSlots() {
		honest = append(honest, node.ID(i))
	}

	ctx, cancel := context.WithTimeout(context.Background(), clusterTimeout)
	defer cancel()
	t = tr.now()
	res, err := runtime.RunCluster(ctx, node.Config{N: spec.N, F: spec.F}, procs, []byte(master), codec.MustRegistry(),
		runtime.WithTransports(endpoint),
		runtime.WithTransportWrap(ot.wrapTransport),
		runtime.WithWaitFor(honest),
		runtime.WithTransportRelease(release),
		runtime.WithFrameBatching(true),
		runtime.WithObsTracks(tr.rec, f.tracks),
	)
	if err != nil {
		return nil, err
	}
	run := ot.add(0, "runtime.cluster", t, tr.now(), 0)

	finals := make([]any, spec.N)
	at := make([]time.Duration, spec.N)
	for _, id := range honest {
		finals[id] = res.Final(int(id))
		at[id] = res.FinalAt(int(id))
		if finals[id] == nil && res.Errs[id] != nil {
			return nil, fmt.Errorf("node %d: %w", id, res.Errs[id])
		}
	}
	stats, err := spec.StatsFromOutputs(finals, at)
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%w (cluster timed out after %v)", err, clusterTimeout)
		}
		return nil, err
	}
	msgs, bytes := ot.traffic()
	stats.Backend = tracedKind
	stats.Wall = res.Wall
	stats.TotalMsgs = int(msgs)
	stats.TotalBytes = bytes
	ot.finish(run)
	tr.mu.Lock()
	tr.honest = len(honest)
	tr.mu.Unlock()
	return stats, nil
}

// tracedSession runs trials one at a time over a persistent net.
type tracedSession struct {
	*fabric
	epoch  uint64
	drains []*drain
}

// drain discards what arrives for a slot while no driver reads it, so a
// late sender of the previous trial can never wedge on a full socket.
type drain struct{ stop, done chan struct{} }

func openTracedSession(spec bench.RunSpec) (bench.BackendSession, error) {
	f, err := openFabric(spec.N, "session")
	if err != nil {
		return nil, err
	}
	s := &tracedSession{fabric: f, drains: make([]*drain, spec.N)}
	s.resume()
	return s, nil
}

// resume starts a drain on every slot that has none. RunCluster calls it
// exactly once as its transport-release hook, possibly from its watchdog
// goroutine, and has finished doing so when it returns; Run calls it again
// afterwards for the paths that never reached RunCluster. It is idempotent.
func (s *tracedSession) resume() {
	for i, d := range s.drains {
		if d != nil {
			continue
		}
		d = &drain{stop: make(chan struct{}), done: make(chan struct{})}
		s.drains[i] = d
		go func(id node.ID, d *drain) {
			defer close(d.done)
			for {
				f, ok := s.net.Recv(id, d.stop)
				if !ok {
					return
				}
				s.net.Recycle(id, f.Data)
			}
		}(node.ID(i), d)
	}
}

// pause stops every drain and waits for it, so the trial's traffic reaches
// the trial's drivers.
func (s *tracedSession) pause() {
	for i, d := range s.drains {
		if d != nil {
			close(d.stop)
			<-d.done
			s.drains[i] = nil
		}
	}
}

// Run implements bench.BackendSession.
func (s *tracedSession) Run(spec bench.RunSpec) (*bench.RunStats, error) {
	if spec.N != s.n {
		return nil, fmt.Errorf("traced session for n=%d cannot run n=%d", s.n, spec.N)
	}
	s.epoch++
	s.pause()
	drops := s.net.Drops()
	stats, err := s.runCluster(spec,
		fmt.Sprintf("perf-session-%d-e%d", spec.Seed, s.epoch),
		func(id node.ID, a *auth.Auth) (runtime.Transport, error) { return s.net.Endpoint(id, a), nil },
		s.resume)
	s.resume()
	if err != nil {
		return nil, err
	}
	stats.TransportDrops = s.net.Drops() - drops
	return stats, nil
}

// Close implements bench.BackendSession.
func (s *tracedSession) Close() error {
	s.pause()
	return s.net.Close()
}

// tracedService runs rounds concurrently, each its own tagged instance.
type tracedService struct {
	*fabric
	mux  *runtime.InstanceMux
	tags atomic.Uint64
}

func openTracedService(spec bench.RunSpec, _ time.Duration) (bench.ServiceRunner, error) {
	f, err := openFabric(spec.N, "service")
	if err != nil {
		return nil, err
	}
	s := &tracedService{fabric: f, mux: runtime.NewInstanceMux(f.net)}
	s.mux.Observe(f.tr.rec)
	return s, nil
}

// RunRound implements bench.ServiceRunner.
func (s *tracedService) RunRound(spec bench.RunSpec) (*bench.RunStats, error) {
	tag := s.tags.Add(1)
	inst, err := s.mux.Register(tag)
	if err != nil {
		return nil, err
	}
	defer inst.Close()
	return s.runCluster(spec,
		fmt.Sprintf("perf-service-%d-t%d", spec.Seed, tag),
		func(id node.ID, a *auth.Auth) (runtime.Transport, error) {
			return inst.Endpoint(id, s.net.TaggedEndpoint(id, a, tag)), nil
		},
		func() {})
}

// StaleFrames implements bench.ServiceRunner.
func (s *tracedService) StaleFrames() uint64 { return s.mux.Stale() }

// Drops implements bench.ServiceRunner.
func (s *tracedService) Drops() uint64 { return s.net.Drops() }

// Close implements bench.ServiceRunner; the service closes its runner once.
func (s *tracedService) Close() error {
	s.mux.Close()
	return s.net.Close()
}
