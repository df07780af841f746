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
	Times [][]time.Duration
	// Errs holds each node's driver error from Run: a message that failed to
	// encode (nil entries for clean exits).
	Errs []error
	// Faults sums what the drivers tolerated and counted (Driver.Faults).
	Faults Faults
	// Wall is the real elapsed time from cluster start until every
	// driver exited.
	Wall time.Duration
}

// Final returns node i's last output, or nil if it produced none.
func (r *ClusterResult) Final(i int) any { return last(r.Outputs[i]) }

// FinalAt returns the wall-clock stamp of node i's last output (zero if it
// produced none).
func (r *ClusterResult) FinalAt(i int) time.Duration { return last(r.Times[i]) }

// last returns s's last element, or the zero value if s is empty.
func last[T any](s []T) (v T) {
	if len(s) > 0 {
		v = s[len(s)-1]
	}
	return v
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
// once when the run ends, however it ends. It is the hook for transports
// that outlive one run: the caller keeps them warm for the next run and
// remains responsible for closing them, and for unblocking any sender still
// parked inside a transport Send, which closing would otherwise do.
func WithTransportRelease(release func()) ClusterOption {
	return func(o *clusterOpts) { o.release = release }
}

// WithFrameBatching toggles the drivers' per-step outbound frame batching
// (default on; see Driver). Off seals every protocol message as its own
// frame, the pre-batching wire behaviour, for A/B comparison.
func WithFrameBatching(on bool) ClusterOption {
	return func(o *clusterOpts) { o.noBatch = !on }
}

// WithObsTracks threads a recorder through the cluster: each driver gets
// flush/batch counters and the per-node track tracks[id] (a nil entry, or a
// short slice, leaves that node's spans off), which its process sees through
// node.Tracing. Sessions pass the same tracks every run, so a node's spans
// stay on one row. A nil recorder is the default no-op.
func WithObsTracks(rec *obs.Recorder, tracks []*obs.Track) ClusterOption {
	return func(o *clusterOpts) { o.rec, o.tracks = rec, tracks }
}

// WithWaitFor ends the run once every listed node's driver has exited,
// cancelling the rest. Without it the cluster waits for all non-nil
// processes, which never happens when a Byzantine spammer never halts; the
// experiment harness lists the honest slots, whose decisions are the run.
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
		hub.Observe(o.rec)
		o.transports = func(id node.ID, a *auth.Auth) (Transport, error) {
			return hub.Endpoint(id, a), nil
		}
	}
	res := &ClusterResult{
		Outputs: make([][]any, cfg.N),
		Times:   make([][]time.Duration, cfg.N),
		Errs:    make([]error, cfg.N),
	}
	// Construct every driver before launching any goroutine, so a failing
	// authenticator or transport returns with nothing started to leak.
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
		core, mem := slotOf(tr) // found before a wrapper hides them
		if o.wrap != nil {
			tr = o.wrap(node.ID(i), tr)
		}
		transports[i] = tr
		var track *obs.Track
		if i < len(o.tracks) {
			track = o.tracks[i]
		}
		drivers[i] = NewDriver(cfg, node.ID(i), p, tr, a, reg, WithDriverBatching(!o.noBatch), WithDriverObs(o.rec, track))
		drivers[i].core = core
		if mem != nil {
			drivers[i].driverMem = mem
		}
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
			// Waiting would cancel at once, an empty result passing for a run.
			closeAll()
			return nil, fmt.Errorf("runtime: WithWaitFor: none of the %d listed slots hosts a running process", len(o.waitFor))
		}
		go func() {
			waited.Wait()
			cancel()
		}()
	}
	// Watchdog: when the run context ends (timeout, cancellation, or
	// WithWaitFor completion), close every transport. A driver blocked in a
	// transport Send, as on a TCP write to a saturated peer, never sees the
	// context; closing the transport is what unblocks it.
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
	for i, d := range drivers {
		if d == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if waitSet[node.ID(i)] {
				defer waited.Done()
			}
			// A context error is how the run ended, not the driver's fault.
			if err := d.Run(runCtx); err != nil && err != runCtx.Err() {
				res.Errs[i] = err
			}
		}()
	}
	wg.Wait()
	res.Wall = time.Since(start)
	for i, d := range drivers {
		if d == nil {
			continue
		}
		res.Outputs[i] = d.outs
		for _, at := range d.outAt {
			res.Times[i] = append(res.Times[i], at.Sub(start))
		}
		for k, c := range d.Faults() {
			res.Faults[k] += c
		}
	}
	// Drivers have exited; close every transport (and the hub) so inboxes
	// and delay timers are released instead of leaking.
	closeAll()
	return res, nil
}
