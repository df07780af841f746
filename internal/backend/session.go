package backend

import (
	"fmt"
	"sync"
	"time"

	"delphi/internal/auth"
	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/run"
	"delphi/internal/runtime"
)

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
//   - Drained idle slots. Between trials (and during a trial, for slots
//     hosting no process) every idle slot discards what reaches it, its
//     buffers going back to its pool (runtime.Discard), so a late delayed
//     send or a Byzantine spammer that never halts queues nothing for the
//     next trial, without closing the listeners and connections it reuses.
type clusterSession struct {
	kind    run.BackendKind
	timeout time.Duration
	fab     fabric
	noBatch bool

	mu     sync.Mutex
	closed bool
	epoch  uint64
	// obsRec is the recorder the fabric is observed by (set by the first
	// Run whose spec carries one); obsTracks are the session's long-lived
	// per-node tracks, so a session's many trials share rows instead of
	// minting n tracks per trial.
	obsRec    *obs.Recorder
	obsTracks []*obs.Track
}

// openCluster opens an n-slot fabric and drains every slot.
func openCluster(kind run.BackendKind, open func(int) (fabric, error), n int, timeout time.Duration, noBatch bool) (run.BackendSession, error) {
	fab, err := open(n)
	if err != nil {
		return nil, err
	}
	s := &clusterSession{kind: kind, timeout: timeout, fab: fab, noBatch: noBatch}
	s.drainAll()
	return s, nil
}

// drainAll drains every slot until a trial takes it; idempotent.
func (s *clusterSession) drainAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < s.fab.N() && !s.closed; i++ {
		runtime.Discard(s.fab, node.ID(i), true)
	}
}

// Run implements run.BackendSession.
func (s *clusterSession) Run(spec run.RunSpec) (*run.RunStats, error) {
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
			runtime.Discard(s.fab, node.ID(i), false)
		}
	}
	s.mu.Unlock()

	// The epoch is part of the master key: no two trials of this session
	// share MACs, whatever their seeds.
	master := []byte(fmt.Sprintf("delphi-session-%s-%d-e%d", s.kind, spec.Seed, epoch))
	dropsBefore := s.fab.Drops()
	st, err := runTrial(s.kind, spec, sc, master, s.noBatch,
		func(id node.ID, a *auth.Auth) (runtime.Transport, error) { return s.fab.Endpoint(id, a), nil },
		s.drainAll, s.obsTracks)
	if err != nil {
		return nil, err
	}
	// The fabric outlives the trial, so the trial's observable frame loss is
	// the counter's delta. A clean trial reads zero.
	st.TransportDrops = s.fab.Drops() - dropsBefore
	return st, nil
}

// Close implements run.BackendSession.
func (s *clusterSession) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.fab.Close()
}
