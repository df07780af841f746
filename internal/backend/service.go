package backend

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"delphi/internal/auth"
	"delphi/internal/bench"
	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/runtime"
)

// This file is the live half of the continuous-service mode (bench.Service):
// a serviceSession runs many agreement rounds CONCURRENTLY over one
// persistent fabric. Where clusterSession serialises trials (one epoch at a
// time, drainers between), the service session multiplexes instances:
//
//   - every round gets a unique 8-byte tag and sends through the fabric's
//     tagged endpoints, which append the tag after the sealed frame;
//   - one runtime.InstanceMux owns the fabric's inboxes for the session's
//     whole life, routing inbound frames to the owning round by tag and
//     counting orphans (stragglers of decided rounds) as stale;
//   - every round seals with its own master key (the tag is part of it), so
//     a frame relabeled onto another live round's tag fails that round's MAC
//     and is dropped by the driver — tag routing is never trusted for
//     authenticity;
//   - a decided round's instance is collected immediately (MuxInstance.Close
//     reclaims its inboxes into the fabric pool), so a service holding a
//     bounded window of rounds in flight holds bounded buffers, however many
//     rounds it has served.
type serviceSession struct {
	kind    bench.BackendKind
	timeout time.Duration
	fab     fabric
	mux     *runtime.InstanceMux
	tags    atomic.Uint64

	mu     sync.Mutex
	closed bool
}

// openService opens an n-slot fabric and attaches a mux to it; from here on
// the mux's routes take every frame the fabric's inboxes are offered (the
// session never starts drainers — each frame is routed or discarded as it
// arrives). rec, when non-nil, observes the fabric and the mux — it
// arrives before any traffic flows, so the hooks are installed race-free.
func openService(kind bench.BackendKind, open func(int) (fabric, error), n int, timeout time.Duration, rec *obs.Recorder) (bench.ServiceRunner, error) {
	fab, err := open(n)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		fab.Observe(rec)
	}
	s := &serviceSession{kind: kind, timeout: timeout, fab: fab, mux: runtime.NewInstanceMux(fab)}
	if rec != nil {
		s.mux.Observe(rec)
	}
	return s, nil
}

// RunRound implements bench.ServiceRunner. Safe for concurrent calls: each
// round is an isolated instance — own tag, own master key, own per-slot
// inboxes — sharing only the fabric's wire and buffer pool.
func (s *serviceSession) RunRound(spec bench.RunSpec) (*bench.RunStats, error) {
	if spec.N != s.fab.N() {
		return nil, fmt.Errorf("backend: %s service for n=%d cannot run spec with n=%d", s.kind, s.fab.N(), spec.N)
	}
	sc, err := newTrialScaffold(spec, s.timeout)
	if err != nil {
		return nil, err
	}
	tag := s.tags.Add(1)
	inst, err := s.mux.Register(tag)
	if err != nil {
		return nil, fmt.Errorf("backend: %s service: %w", s.kind, err)
	}
	// Collected after runTrial has flushed the wrappers' delayed sends, so
	// their frames are routed to this instance and discarded by its Close:
	// either way accounted.
	defer inst.Close()

	var tracks []*obs.Track
	if spec.Obs != nil {
		// Concurrent rounds cannot share per-node tracks (tracks are
		// single-writer), so each round mints its own row set, named by tag.
		tracks = make([]*obs.Track, spec.N)
		for i := range tracks {
			tracks[i] = spec.Obs.NewTrack(fmt.Sprintf("round-%d.node-%d", tag, i), nil)
		}
	}
	// The tag is part of the master key: concurrent rounds never share MACs,
	// whatever their seeds, so cross-instance frames (relabeled or plain
	// stragglers) die at the receiving driver's authenticator. Nothing needs
	// releasing on exit: routing never blocks, so no sender can wedge on
	// this round's end. TransportDrops stays zero per round: with
	// concurrent rounds on one fabric a counter delta cannot be attributed
	// to a round, so the service reads the session total through Drops.
	master := []byte(fmt.Sprintf("delphi-service-%s-%d-t%d", s.kind, spec.Seed, tag))
	return runTrial(s.kind, spec, sc, master, false,
		func(id node.ID, a *auth.Auth) (runtime.Transport, error) {
			return inst.Endpoint(id, s.fab.TaggedEndpoint(id, a, tag)), nil
		}, func() {}, tracks)
}

// StaleFrames implements bench.ServiceRunner: frames the mux discarded
// because no live instance claimed them — the accounted stragglers of
// decided rounds.
func (s *serviceSession) StaleFrames() uint64 { return s.mux.Stale() }

// Drops implements bench.ServiceRunner: the fabric's observable frame loss
// since the session opened.
func (s *serviceSession) Drops() uint64 { return s.fab.Drops() }

// Close implements bench.ServiceRunner. Idempotent. Rounds still in flight
// lose their inboxes (their drivers see end-of-input and exit), so callers
// should drain their window first for clean stats.
func (s *serviceSession) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.mux.Close()
	return s.fab.Close()
}
