package backend

import (
	"context"
	"fmt"
	"sync"
	"time"

	"delphi/internal/auth"
	"delphi/internal/bench"
	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/runtime"
)

// Session is a persistent execution session for one cell: Open once, Run
// many trials over the same substrate, Close when the cell is done. The
// tcp session keeps its loopback listeners (and whatever connections the
// cluster has dialed) bound across trials; the live session keeps its hub
// and inbox buffers. bench.Engine opens one session per (cell, worker) and
// reuses it for every trial — the ROADMAP's persistent-cluster mode.
type Session interface {
	// Run executes one spec on the session's substrate.
	Run(spec bench.RunSpec) (RunResult, error)
	// Close tears the substrate down. Safe after a failed Run.
	Close() error
}

// SessionBackend is implemented by backends that support persistent
// sessions. Backends without it keep the exact per-trial behaviour.
type SessionBackend interface {
	Backend
	// SessionKey maps a spec to its session cell key: specs with equal
	// keys may share one session.
	SessionKey(spec bench.RunSpec) string
	// OpenSession opens a session for the spec's cell.
	OpenSession(spec bench.RunSpec) (Session, error)
}

// SessionKey implements SessionBackend: a live hub fits any trial of the
// same cluster size.
func (b Live) SessionKey(spec bench.RunSpec) string { return fmt.Sprintf("n=%d", spec.N) }

// OpenSession implements SessionBackend.
func (b Live) OpenSession(spec bench.RunSpec) (Session, error) {
	return newClusterSession(bench.BackendLive, spec.N, b.Timeout,
		hubFabric{hub: runtime.NewHub(spec.N)}, b.NoBatch), nil
}

// SessionKey implements SessionBackend: the tcp listeners fit any trial of
// the same cluster size.
func (b TCP) SessionKey(spec bench.RunSpec) string { return fmt.Sprintf("n=%d", spec.N) }

// OpenSession implements SessionBackend: the n listener binds happen here,
// once, instead of once per trial.
func (b TCP) OpenSession(spec bench.RunSpec) (Session, error) {
	net, err := runtime.NewTCPNet(spec.N)
	if err != nil {
		return nil, err
	}
	return newClusterSession(bench.BackendTCP, spec.N, b.Timeout, tcpFabric{net: net}, b.NoBatch), nil
}

// fabric is the persistent substrate under a clusterSession: something
// that hands out per-epoch transport endpoints, receives on each slot's
// shared inbox, and reports cumulative observable frame drops.
type fabric interface {
	endpoint(id node.ID, a *auth.Auth) runtime.Transport
	recv(id node.ID, stop <-chan struct{}) (runtime.Frame, bool)
	drops() uint64
	observe(rec *obs.Recorder)
	close() error
}

// hubFabric adapts a persistent runtime.Hub.
type hubFabric struct{ hub *runtime.Hub }

func (f hubFabric) endpoint(id node.ID, a *auth.Auth) runtime.Transport {
	return f.hub.Endpoint(id, a)
}
func (f hubFabric) recv(id node.ID, stop <-chan struct{}) (runtime.Frame, bool) {
	return f.hub.Recv(id, stop)
}
func (f hubFabric) drops() uint64             { return f.hub.Drops() }
func (f hubFabric) observe(rec *obs.Recorder) { f.hub.Observe(rec) }
func (f hubFabric) close() error              { f.hub.Close(); return nil }

// tcpFabric adapts a persistent runtime.TCPNet.
type tcpFabric struct{ net *runtime.TCPNet }

func (f tcpFabric) endpoint(id node.ID, a *auth.Auth) runtime.Transport {
	return f.net.Endpoint(id, a)
}
func (f tcpFabric) recv(id node.ID, stop <-chan struct{}) (runtime.Frame, bool) {
	return f.net.Recv(id, stop)
}
func (f tcpFabric) drops() uint64             { return f.net.Drops() }
func (f tcpFabric) observe(rec *obs.Recorder) { f.net.Observe(rec) }
func (f tcpFabric) close() error              { return f.net.Close() }

// drainer discards frames arriving on one slot's shared inbox while no
// driver is reading it.
type drainer struct {
	stop chan struct{}
	done chan struct{}
}

// clusterSession runs trials over a persistent fabric. Correctness across
// trials rests on two mechanisms:
//
//   - Epoch keys. Every trial seals frames with a fresh master key (the
//     session epoch is part of it) and its endpoints mark them with the
//     key's public epoch id, so a frame from an earlier trial that is still
//     crossing the persistent fabric is recycled and counted by the new
//     trial's endpoint (transport.stale_epoch) before any MAC is tried. A
//     frame that does fail the MAC is therefore a real fault, and fails the
//     trial (see clusterStats).
//   - Inter-trial drainers. Between trials (and during a trial, for slots
//     hosting no process) every idle slot's inbound channel is drained.
//     This discards stale frames and, more importantly, keeps senders from
//     wedging: a late delayed send, or a Byzantine spammer that never
//     halts, unblocks because its peer's channel keeps moving, without
//     closing the listeners and connections the next trial reuses.
type clusterSession struct {
	kind    bench.BackendKind
	n       int
	timeout time.Duration
	fab     fabric
	noBatch bool

	mu       sync.Mutex
	closed   bool
	epoch    uint64
	drainers []*drainer
	// obsRec is the recorder the fabric is observed by (set by the first
	// Run whose spec carries one); obsTracks are the session's long-lived
	// per-node tracks, so a session's many trials share rows instead of
	// minting n tracks per trial.
	obsRec    *obs.Recorder
	obsTracks []*obs.Track
}

// newClusterSession builds the session and starts draining every slot.
func newClusterSession(kind bench.BackendKind, n int, timeout time.Duration, fab fabric, noBatch bool) *clusterSession {
	s := &clusterSession{
		kind:     kind,
		n:        n,
		timeout:  timeout,
		fab:      fab,
		noBatch:  noBatch,
		drainers: make([]*drainer, n),
	}
	s.mu.Lock()
	for i := range s.drainers {
		s.startDrain(i)
	}
	s.mu.Unlock()
	return s
}

// startDrain starts slot i's drainer if absent. Caller holds s.mu.
func (s *clusterSession) startDrain(i int) {
	if s.closed || s.drainers[i] != nil {
		return
	}
	d := &drainer{stop: make(chan struct{}), done: make(chan struct{})}
	s.drainers[i] = d
	id := node.ID(i)
	go func() {
		defer close(d.done)
		for {
			if _, ok := s.fab.recv(id, d.stop); !ok {
				// Stopped, or the fabric closed under us — either way, done.
				return
			}
		}
	}()
}

// stopDrain stops slot i's drainer and waits for it to exit, so no frame
// can be consumed after stopDrain returns (the next trial's traffic must
// reach the next trial's driver). Caller holds s.mu.
func (s *clusterSession) stopDrain(i int) {
	d := s.drainers[i]
	if d == nil {
		return
	}
	s.drainers[i] = nil
	close(d.stop)
	<-d.done
}

// resumeDrainers restarts draining on every slot; idempotent.
func (s *clusterSession) resumeDrainers() {
	s.mu.Lock()
	for i := range s.drainers {
		s.startDrain(i)
	}
	s.mu.Unlock()
}

// Run implements Session.
func (s *clusterSession) Run(spec bench.RunSpec) (RunResult, error) {
	if spec.N != s.n {
		return RunResult{}, fmt.Errorf("backend: session for n=%d cannot run spec with n=%d", s.n, spec.N)
	}
	sc, err := newTrialScaffold(spec, s.timeout)
	if err != nil {
		return RunResult{}, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return RunResult{}, fmt.Errorf("backend: %s session is closed", s.kind)
	}
	s.epoch++
	epoch := s.epoch
	if spec.Obs != nil && spec.Obs != s.obsRec {
		// First trial carrying a recorder: observe the persistent fabric
		// and lay out the per-node track rows once. Specs of one batch all
		// carry the same recorder, so this runs before any traffic flows.
		s.obsRec = spec.Obs
		s.fab.observe(spec.Obs)
		s.obsTracks = make([]*obs.Track, s.n)
		for i := range s.obsTracks {
			s.obsTracks[i] = spec.Obs.NewTrack(fmt.Sprintf("node-%d", i), nil)
		}
	}
	// Hand the active slots to the trial; slots hosting no process
	// (crashed nodes) stay drained throughout, so traffic addressed to
	// them never backs up the fabric.
	for i, p := range sc.procs {
		if p != nil {
			s.stopDrain(i)
		}
	}
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), sc.timeout)
	defer cancel()

	wrappers := make([]*advTransport, spec.N)
	// The epoch is part of the master key: no two trials of this session
	// share MACs, whatever their seeds.
	master := []byte(fmt.Sprintf("delphi-session-%s-%d-e%d", s.kind, spec.Seed, epoch))
	release := func() {
		// Trial teardown without touching the fabric: stop the delay
		// wrappers' timers and put every slot back on its drainer. The
		// drainers are what unblock any sender still parked in a transport
		// Send (closing the transport did that job in per-trial mode).
		for _, w := range wrappers {
			if w != nil {
				w.detach()
			}
		}
		s.resumeDrainers()
	}
	opts := []runtime.ClusterOption{
		runtime.WithTransports(func(id node.ID, a *auth.Auth) (runtime.Transport, error) {
			return s.fab.endpoint(id, a), nil
		}),
		runtime.WithTransportWrap(func(id node.ID, tr runtime.Transport) runtime.Transport {
			w := sc.wrap(id, tr).(*advTransport)
			wrappers[id] = w
			return w
		}),
		runtime.WithWaitFor(sc.honest),
		runtime.WithTransportRelease(release),
		runtime.WithFrameBatching(!s.noBatch),
	}
	if spec.Obs != nil {
		opts = append(opts, runtime.WithObsTracks(spec.Obs, s.obsTracks))
	}
	cfg := node.Config{N: spec.N, F: spec.F}
	dropsBefore := s.fab.drops()
	res, runErr := runtime.RunCluster(ctx, cfg, sc.procs, master, sc.reg, opts...)
	// RunCluster has invoked release on every path; resume again anyway
	// (idempotent), then wait out the wrappers' in-flight delayed sends —
	// guaranteed to finish now that every slot is drained. Their frames
	// carry this epoch's id, so any stragglers die at the next trial's
	// endpoints.
	s.resumeDrainers()
	for _, w := range wrappers {
		if w != nil {
			w.wait()
		}
	}
	if runErr != nil {
		return RunResult{}, runErr
	}
	r, err := clusterStats(spec, s.kind, res, sc.acct, ctx, sc.timeout)
	if err != nil {
		return RunResult{}, err
	}
	// The fabric outlives the trial, so the trial's observable frame loss is
	// the counter's delta. A clean trial reads zero.
	r.Stats.TransportDrops = s.fab.drops() - dropsBefore
	return r, nil
}

// Close implements Session.
func (s *clusterSession) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for i := range s.drainers {
		s.stopDrain(i)
	}
	s.mu.Unlock()
	return s.fab.close()
}

// benchSession adapts a Session to the bench registry's interface.
type benchSession struct{ s Session }

// Run implements bench.BackendSession.
func (w benchSession) Run(spec bench.RunSpec) (*bench.RunStats, error) {
	r, err := w.s.Run(spec)
	if err != nil {
		return nil, err
	}
	return r.Stats, nil
}

// Close implements bench.BackendSession.
func (w benchSession) Close() error { return w.s.Close() }
