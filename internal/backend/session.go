package backend

import (
	"fmt"
	"sync"
	"time"

	"delphi/internal/auth"
	"delphi/internal/bench"
	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/runtime"
)

// drainer discards frames arriving on one slot's shared inbox while no
// driver is reading it.
type drainer struct {
	stop chan struct{}
	done chan struct{}
}

// clusterSession runs serial trials over a persistent fabric. Correctness
// across trials rests on two mechanisms:
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

// openCluster opens an n-slot fabric and starts draining every slot.
func openCluster(kind bench.BackendKind, open func(int) (fabric, error), n int, timeout time.Duration, noBatch bool) (bench.BackendSession, error) {
	fab, err := open(n)
	if err != nil {
		return nil, err
	}
	s := &clusterSession{
		kind:     kind,
		timeout:  timeout,
		fab:      fab,
		noBatch:  noBatch,
		drainers: make([]*drainer, n),
	}
	s.resumeDrainers()
	return s, nil
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
			if _, ok := s.fab.Recv(id, d.stop); !ok {
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

// Run implements bench.BackendSession.
func (s *clusterSession) Run(spec bench.RunSpec) (*bench.RunStats, error) {
	if spec.N != s.fab.N() {
		return nil, fmt.Errorf("backend: session for n=%d cannot run spec with n=%d", s.fab.N(), spec.N)
	}
	sc, err := newTrialScaffold(spec, s.timeout)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("backend: %s session is closed", s.kind)
	}
	s.epoch++
	epoch := s.epoch
	if spec.Obs != nil && spec.Obs != s.obsRec {
		// First trial carrying a recorder: observe the persistent fabric
		// and lay out the per-node track rows once. Specs of one batch all
		// carry the same recorder, so this runs before any traffic flows.
		s.obsRec = spec.Obs
		s.fab.Observe(spec.Obs)
		s.obsTracks = make([]*obs.Track, spec.N)
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

	// The epoch is part of the master key: no two trials of this session
	// share MACs, whatever their seeds.
	master := []byte(fmt.Sprintf("delphi-session-%s-%d-e%d", s.kind, spec.Seed, epoch))
	dropsBefore := s.fab.Drops()
	st, err := runTrial(s.kind, spec, sc, master, s.noBatch,
		func(id node.ID, a *auth.Auth) (runtime.Transport, error) { return s.fab.Endpoint(id, a), nil },
		s.resumeDrainers, s.obsTracks)
	if err != nil {
		return nil, err
	}
	// The fabric outlives the trial, so the trial's observable frame loss is
	// the counter's delta. A clean trial reads zero.
	st.TransportDrops = s.fab.Drops() - dropsBefore
	return st, nil
}

// Close implements bench.BackendSession.
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
	return s.fab.Close()
}
