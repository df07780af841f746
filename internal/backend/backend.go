// Package backend runs a RunSpec on a live cluster: the same node.Process
// instances the simulator runs, as goroutine-per-node drivers over a
// persistent fabric. The live backend's fabric is an in-memory hub
// (runtime.Hub); the tcp backend's is a wired loopback mesh with
// length-prefixed, HMAC-authenticated frames (runtime.TCPNet). Every run is
// a session: bench.Engine keeps one per (cell, worker) across trials, and a
// one-shot Run is a session of one trial. Serial trials share the fabric
// through epoch keys and drainers (clusterSession); concurrent service
// rounds share it through an instance mux (serviceSession). Both run their
// trials through one body, runTrial.
//
// Importing this package registers the live backends with the bench
// registry, so a Scenario or Matrix can name them as an axis
// (Scenario.Backend / Matrix.Backends) and bench.Engine fans the cells
// across its worker pool like any other trial — every existing workload
// (figures, ablations, adversary sweeps) becomes a cross-backend experiment
// by adding one axis value.
//
// Live backends measure wall-clock time (RunStats.Wall, and Latency as
// wall time to the slowest honest decision). Wall time is real, so it is
// not deterministic and carries no byte-identity guarantee; protocol
// outputs, in contrast, must still satisfy the protocols' agreement and
// validity guarantees on every backend — bench.ValidateCrossBackend checks
// exactly that. Network adversaries (internal/netadv) are injected into
// live transports by a delay-wrapping Transport that evaluates the same
// sim.DelayRule presets against the wall clock.
package backend

import (
	"context"
	"fmt"
	"time"

	"delphi/internal/auth"
	"delphi/internal/bench"
	"delphi/internal/codec"
	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/runtime"
	"delphi/internal/sim"
	"delphi/internal/wire"
)

// DefaultTimeout bounds a live cluster run. It is far above any quick-scale
// protocol completion (milliseconds to a few seconds under adversarial
// delay) so hitting it means a wedged cluster, not a slow one.
const DefaultTimeout = 60 * time.Second

// Live executes specs as in-process goroutine clusters over runtime.Hub.
type Live struct {
	// Timeout bounds one cluster run; 0 means DefaultTimeout.
	Timeout time.Duration
	// NoBatch disables the drivers' per-step frame batching (see
	// runtime.WithFrameBatching) for A/B comparison.
	NoBatch bool
}

// Run executes one spec as a session of one trial.
func (b Live) Run(spec bench.RunSpec) (*bench.RunStats, error) {
	return runOnce(bench.BackendLive, openHub, spec, b.Timeout, b.NoBatch)
}

// TCP executes specs as loopback TCP clusters over runtime.TCPNet.
type TCP struct {
	// Timeout bounds one cluster run; 0 means DefaultTimeout.
	Timeout time.Duration
	// NoBatch disables the drivers' per-step frame batching (see
	// runtime.WithFrameBatching) for A/B comparison.
	NoBatch bool
}

// Run executes one spec as a session of one trial: the mesh is wired, the
// trial runs, and the mesh is torn down.
func (b TCP) Run(spec bench.RunSpec) (*bench.RunStats, error) {
	return runOnce(bench.BackendTCP, openTCPNet, spec, b.Timeout, b.NoBatch)
}

// fabric is the persistent substrate under a session: per-slot inboxes
// (runtime.MuxFabric; Recv for idle-slot drainers), per-epoch and per-instance
// endpoints, and cumulative observable frame drops. Hub and TCPNet satisfy it.
type fabric interface {
	runtime.MuxFabric
	Recv(id node.ID, stop <-chan struct{}) (runtime.Frame, bool)
	Endpoint(id node.ID, a *auth.Auth) runtime.Transport
	TaggedEndpoint(id node.ID, a *auth.Auth, tag uint64) runtime.Transport
	Drops() uint64
	Observe(rec *obs.Recorder)
	Close() error
}

func openHub(n int) (fabric, error) { return runtime.NewHub(n), nil }

func openTCPNet(n int) (fabric, error) {
	net, err := runtime.NewTCPNet(n)
	if err != nil {
		return nil, err
	}
	return net, nil
}

// runOnce runs spec as a session of one trial.
func runOnce(kind bench.BackendKind, open func(int) (fabric, error), spec bench.RunSpec, timeout time.Duration, noBatch bool) (*bench.RunStats, error) {
	s, err := openCluster(kind, open, spec.N, timeout, noBatch)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Run(spec)
}

// trialScaffold is the per-trial plumbing every live execution needs:
// processes, adversary wrapper, honest-exit set, and the timeout. Trials
// are over when every honest node has decided and halted; Byzantine
// processes (a spammer never halts) must not hold the cluster open until
// the timeout — hence WaitFor(honest).
type trialScaffold struct {
	timeout time.Duration
	reg     *wire.Registry
	procs   []node.Process
	honest  []node.ID
	wrap    runtime.TransportWrapper
	acct    *traffic
}

// newTrialScaffold validates the spec and builds the scaffolding; a zero
// timeout means DefaultTimeout.
func newTrialScaffold(spec bench.RunSpec, timeout time.Duration) (*trialScaffold, error) {
	if err := spec.Adversary.Validate(); err != nil {
		return nil, err
	}
	procs, err := spec.Processes()
	if err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	reg := codec.MustRegistry()
	var (
		rule sim.DelayRule
		hist *liveHistory
	)
	if spec.Adversary.NeedsHistory() {
		// Adaptive adversaries observe the cluster's own forwarded-frame
		// counts; the wrappers feed the history as they release frames.
		hist = newLiveHistory(spec.N)
		rule = spec.Adversary.RuleWith(spec.N, spec.F, spec.Seed, hist)
	} else {
		rule = spec.Adversary.Rule(spec.N, spec.F, spec.Seed)
	}
	wrap, acct := newAdvWrapper(rule, reg, hist)
	honest := make([]node.ID, 0, spec.N)
	for _, i := range spec.HonestSlots() {
		honest = append(honest, node.ID(i))
	}
	return &trialScaffold{
		timeout: timeout,
		reg:     reg,
		procs:   procs,
		honest:  honest,
		wrap:    wrap,
		acct:    acct,
	}, nil
}

// runTrial is the trial body both session kinds share: wrap every transport
// with adversary delay and traffic accounting, run the cluster, and assemble
// RunStats. Teardown never touches the fabric: the delay wrappers detach,
// then release runs — it is what unblocks any sender still
// parked in a transport Send — and again after the run, before the
// wrappers' in-flight delayed sends are waited out. tracks are the drivers'
// per-node trace rows when spec.Obs is set.
func runTrial(kind bench.BackendKind, spec bench.RunSpec, sc *trialScaffold, master []byte, noBatch bool,
	transports runtime.TransportFactory, release func(), tracks []*obs.Track) (*bench.RunStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), sc.timeout)
	defer cancel()
	wrappers := make([]*advTransport, spec.N)
	opts := []runtime.ClusterOption{
		runtime.WithTransports(transports),
		runtime.WithTransportWrap(func(id node.ID, tr runtime.Transport) runtime.Transport {
			w := sc.wrap(id, tr).(*advTransport)
			wrappers[id] = w
			return w
		}),
		runtime.WithWaitFor(sc.honest),
		runtime.WithTransportRelease(func() {
			for _, w := range wrappers {
				if w != nil {
					w.detach()
				}
			}
			release()
		}),
		runtime.WithFrameBatching(!noBatch),
	}
	if spec.Obs != nil {
		opts = append(opts, runtime.WithObsTracks(spec.Obs, tracks))
	}
	res, err := runtime.RunCluster(ctx, node.Config{N: spec.N, F: spec.F}, sc.procs, master, sc.reg, opts...)
	// RunCluster has released on every path; release again anyway
	// (idempotent), then wait out the wrappers' in-flight delayed sends —
	// guaranteed to finish now that nothing can block them. Their frames
	// carry this trial's epoch or tag, so any stragglers die at the next
	// trial's endpoints or in the mux.
	release()
	for _, w := range wrappers {
		if w != nil {
			w.wait()
		}
	}
	if err != nil {
		return nil, err
	}
	return clusterStats(spec, kind, res, sc.acct, ctx, sc.timeout)
}

// clusterStats assembles RunStats from a finished cluster run. When the
// trial context expired, the error names the honest slots that never
// decided and the first driver error, so a timed-out trial carries its
// cause.
func clusterStats(spec bench.RunSpec, kind bench.BackendKind, res *runtime.ClusterResult, acct *traffic, ctx context.Context, timeout time.Duration) (*bench.RunStats, error) {
	if bad := res.Faults[runtime.FaultBadMAC]; bad != 0 {
		// Stale epochs are filtered before the MAC, so these were forged or
		// corrupted in a closed cluster: no number from this trial counts.
		return nil, fmt.Errorf("backend: %s: %d frames failed authentication", kind, bad)
	}
	finals := make([]any, spec.N)
	at := make([]time.Duration, spec.N)
	var silent []int
	for _, i := range spec.HonestSlots() {
		finals[i] = res.Final(i)
		at[i] = res.FinalAt(i)
		if finals[i] == nil && res.Errs[i] != nil {
			return nil, fmt.Errorf("node %d: %w", i, res.Errs[i])
		}
		if finals[i] == nil {
			silent = append(silent, i)
		}
	}
	stats, err := spec.StatsFromOutputs(finals, at)
	if err != nil {
		if ctx.Err() != nil {
			cause := fmt.Sprintf("honest slots %v have no output", silent)
			for i, e := range res.Errs {
				if e != nil {
					cause += fmt.Sprintf("; first driver error: node %d: %v", i, e)
					break
				}
			}
			return nil, fmt.Errorf("%w (cluster timed out after %v: %s)", err, timeout, cause)
		}
		return nil, err
	}
	stats.Backend = kind
	stats.Wall = res.Wall
	stats.TotalBytes = acct.bytes.Load()
	stats.TotalMsgs = int(acct.msgs.Load())
	return stats, nil
}

func init() {
	for _, k := range []struct {
		kind bench.BackendKind
		open func(int) (fabric, error)
	}{
		{bench.BackendLive, openHub},
		{bench.BackendTCP, openTCPNet},
	} {
		bench.MustRegisterBackend(k.kind, bench.BackendCaps{WallClock: true}, func(spec bench.RunSpec) (*bench.RunStats, error) {
			return runOnce(k.kind, k.open, spec, 0, false)
		})
		bench.MustRegisterBackendSessions(k.kind, bench.SessionSupport{
			// A fabric fits any trial of the same cluster size.
			Key: func(spec bench.RunSpec) string { return fmt.Sprintf("n=%d", spec.N) },
			Open: func(spec bench.RunSpec) (bench.BackendSession, error) {
				return openCluster(k.kind, k.open, spec.N, 0, false)
			},
		})
		bench.MustRegisterServiceBackend(k.kind, func(spec bench.RunSpec, timeout time.Duration) (bench.ServiceRunner, error) {
			return openService(k.kind, k.open, spec.N, timeout, spec.Obs)
		})
	}
}
