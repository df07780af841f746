package runtime

import (
	"context"
	"fmt"
	"sync"
	"time"

	"delphi/internal/auth"
	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/wire"
)

// ClusterResult collects each node's outputs from a live in-process run.
type ClusterResult struct {
	// Outputs holds every Output call per node.
	Outputs [][]any
	// Times holds the wall-clock elapsed time of each Output call,
	// measured from cluster start; Times[i][j] timestamps Outputs[i][j].
	// The stamp is taken when the output is drained, so it includes any
	// (bounded) channel hand-off latency on top of the decision instant.
	Times [][]time.Duration
	// Errs holds per-node driver errors (nil entries for clean exits).
	Errs []error
	// Faults sums what the drivers tolerated and counted (Driver.Faults).
	Faults Faults
	// Wall is the real elapsed time from cluster start until every
	// driver exited.
	Wall time.Duration
}

// Final returns node i's last output, or nil if it produced none.
func (r *ClusterResult) Final(i int) any {
	if len(r.Outputs[i]) == 0 {
		return nil
	}
	return r.Outputs[i][len(r.Outputs[i])-1]
}

// FinalAt returns the wall-clock stamp of node i's last output (zero if it
// produced none).
func (r *ClusterResult) FinalAt(i int) time.Duration {
	if len(r.Times[i]) == 0 {
		return 0
	}
	return r.Times[i][len(r.Times[i])-1]
}

// TransportFactory builds node id's transport for a cluster run; a is the
// node's authenticator (the factory's transport must seal outbound frames
// with it).
type TransportFactory func(id node.ID, a *auth.Auth) (Transport, error)

// TransportWrapper decorates a node's transport (delay injection, traffic
// accounting, ...). The cluster closes the wrapper — which must forward
// Close to the wrapped transport — when the run ends.
type TransportWrapper func(id node.ID, tr Transport) Transport

// clusterOpts collects RunCluster's optional behaviours.
type clusterOpts struct {
	transports TransportFactory
	wrap       TransportWrapper
	waitFor    []node.ID
	release    func()
	noBatch    bool
	rec        *obs.Recorder
	tracks     []*obs.Track
}

// ClusterOption customises RunCluster.
type ClusterOption func(*clusterOpts)

// WithTransports replaces the default in-memory hub with per-node
// transports from the factory (e.g. endpoints of a runtime.TCPNet).
func WithTransports(f TransportFactory) ClusterOption {
	return func(o *clusterOpts) { o.transports = f }
}

// WithTransportWrap wraps every node's transport before its driver starts —
// the hook through which the experiment harness injects network adversaries
// and traffic accounting into live clusters.
func WithTransportWrap(w TransportWrapper) ClusterOption {
	return func(o *clusterOpts) { o.wrap = w }
}

// WithTransportRelease replaces transport teardown: instead of closing
// every transport (and the default hub), the cluster calls release exactly
// once when the run ends — normally, by timeout, or by WithWaitFor
// completion. It is the hook for session-scoped transports that outlive one
// run: the caller keeps listeners and connections warm for the next run and
// remains responsible for (a) eventually closing them and (b) unblocking
// any sender still parked inside a transport Send, which transport closing
// would otherwise do (e.g. by draining the receivers' inbound channels).
func WithTransportRelease(release func()) ClusterOption {
	return func(o *clusterOpts) { o.release = release }
}

// WithFrameBatching toggles the drivers' per-step outbound frame batching
// (default on; see Driver). Off sends every protocol message as its own
// sealed write — the pre-batching wire behaviour — for A/B comparison.
func WithFrameBatching(on bool) ClusterOption {
	return func(o *clusterOpts) { o.noBatch = !on }
}

// WithObsTracks threads a recorder through the cluster: each driver gets
// flush/batch counters and the per-node track tracks[id] (a nil entry, or a
// short slice, leaves that node's spans off), and the process behind it
// sees the track through node.Tracing. Sessions that host many runs on one
// recorder pass the same tracks every run, so a node's spans stay on one
// long-lived row. A nil recorder is the default no-op.
func WithObsTracks(rec *obs.Recorder, tracks []*obs.Track) ClusterOption {
	return func(o *clusterOpts) { o.rec, o.tracks = rec, tracks }
}

// WithWaitFor ends the run once every listed node's driver has exited,
// cancelling the rest. Without it the cluster waits for all non-nil
// processes — which never happens when a Byzantine process (e.g. a
// spammer) deliberately never halts; the experiment harness lists the
// honest slots, whose decisions are the run.
func WithWaitFor(ids []node.ID) ClusterOption {
	return func(o *clusterOpts) { o.waitFor = ids }
}

// RunCluster runs the processes as goroutine-per-node over an authenticated
// transport — an in-memory hub by default, or whatever WithTransports
// supplies — until every (non-nil) process halts or the context expires.
// nil entries model crashed nodes.
func RunCluster(ctx context.Context, cfg node.Config, procs []node.Process, master []byte, reg *wire.Registry, opts ...ClusterOption) (*ClusterResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(procs) != cfg.N {
		return nil, fmt.Errorf("runtime: %d processes for n=%d", len(procs), cfg.N)
	}
	var o clusterOpts
	for _, opt := range opts {
		opt(&o)
	}
	var hub *Hub
	if o.transports == nil {
		hub = NewHub(cfg.N)
		if o.rec != nil {
			hub.Observe(o.rec)
		}
		o.transports = func(id node.ID, a *auth.Auth) (Transport, error) {
			return hub.Endpoint(id, a), nil
		}
	}
	res := &ClusterResult{
		Outputs: make([][]any, cfg.N),
		Times:   make([][]time.Duration, cfg.N),
		Errs:    make([]error, cfg.N),
	}
	// Construct every driver before launching any goroutine: a failing
	// authenticator or transport then returns with nothing started, instead
	// of abandoning already-launched node goroutines (and the transports
	// they block on) as an unsupervised leak.
	drivers := make([]*Driver, cfg.N)
	transports := make([]Transport, cfg.N)
	var closeOnce sync.Once
	closeAll := func() {
		closeOnce.Do(func() {
			if o.release != nil {
				o.release()
				return
			}
			for _, tr := range transports {
				if tr != nil {
					tr.Close()
				}
			}
			if hub != nil {
				hub.Close()
			}
		})
	}
	for i, p := range procs {
		if p == nil {
			continue
		}
		a, err := auth.New(node.ID(i), cfg.N, master)
		if err != nil {
			closeAll()
			return nil, err
		}
		tr, err := o.transports(node.ID(i), a)
		if err != nil {
			closeAll()
			return nil, err
		}
		if o.wrap != nil {
			tr = o.wrap(node.ID(i), tr)
		}
		transports[i] = tr
		dopts := []DriverOption{WithDriverBatching(!o.noBatch)}
		if o.rec != nil {
			var track *obs.Track
			if i < len(o.tracks) {
				track = o.tracks[i]
			}
			dopts = append(dopts, WithDriverObs(o.rec, track))
		}
		drivers[i] = NewDriver(cfg, node.ID(i), p, tr, a, reg, dopts...)
	}
	// WithWaitFor: once every listed (and actually running) driver exits,
	// cancel the rest instead of waiting on processes that never halt.
	runCtx := ctx
	var waited sync.WaitGroup
	waitSet := make(map[node.ID]bool, len(o.waitFor))
	if len(o.waitFor) > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithCancel(ctx)
		defer cancel()
		for _, id := range o.waitFor {
			if int(id) >= 0 && int(id) < cfg.N && drivers[id] != nil && !waitSet[id] {
				waitSet[id] = true
				waited.Add(1)
			}
		}
		if len(waitSet) == 0 {
			// Nothing listed is actually running: waiting would cancel
			// instantly and return an empty result indistinguishable from
			// a completed run. Fail loudly instead.
			closeAll()
			return nil, fmt.Errorf("runtime: WithWaitFor: none of the %d listed slots hosts a running process", len(o.waitFor))
		}
		go func() {
			waited.Wait()
			cancel()
		}()
	}
	// Watchdog: when the run context ends — timeout, caller cancellation,
	// or WithWaitFor completion — close every transport. A driver blocked
	// inside a transport Send (e.g. a TCP write to a saturated peer) never
	// observes context cancellation on its own; closing the transport is
	// what unblocks it, so without this the timeout cannot bound a wedged
	// cluster. closeAll is idempotent, so the deferred final close is
	// unaffected.
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-runCtx.Done():
			closeAll()
		case <-finished:
		}
	}()
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i, d := range drivers {
		if d == nil {
			continue
		}
		idx, drv := i, d
		wg.Add(2)
		go func() {
			defer wg.Done()
			for v := range drv.Outputs() {
				at := time.Since(start)
				mu.Lock()
				res.Outputs[idx] = append(res.Outputs[idx], v)
				res.Times[idx] = append(res.Times[idx], at)
				mu.Unlock()
			}
		}()
		go func() {
			defer wg.Done()
			if waitSet[node.ID(idx)] {
				defer waited.Done()
			}
			if err := drv.Run(runCtx); err != nil && runCtx.Err() == nil {
				mu.Lock()
				res.Errs[idx] = err
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Wall = time.Since(start)
	for _, d := range drivers {
		if d != nil {
			for k, c := range d.Faults() {
				res.Faults[k] += c
			}
		}
	}
	// Drivers have exited; close every transport (and the hub) so buffered
	// inboxes, delay timers, and any overflow handoff still parked on a
	// full inbox (e.g. one addressed to a crashed node that never drained)
	// unblock instead of leaking.
	closeAll()
	return res, nil
}
