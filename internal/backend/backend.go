// Package backend runs a RunSpec on a live cluster: the same node.Process
// instances the simulator runs, as goroutine-per-node drivers over a
// persistent fabric. The live backend's fabric is an in-memory hub
// (runtime.Hub); the tcp backend's is a wired loopback mesh with
// length-prefixed, HMAC-authenticated frames (runtime.TCPNet). Every run is
// a session: bench.Engine keeps one per (cell, worker) across trials, and a
// one-shot Run is a session of one trial. Serial trials share the fabric
// through epoch keys and drained idle slots (clusterSession); concurrent service
// rounds share it through an instance mux (serviceSession). Both run their
// trials through one body, runTrial.
//
// bench.Engine runs a spec on these backends when the spec, its Scenario or
// the Engine names one (RunSpec.Backend, Scenario.Backend, Engine.Backend),
// and fans the cells across its worker pool like any other trial — every
// existing workload (figures, ablations, adversary sweeps) runs on a live
// cluster by setting one field.
//
// Live backends measure wall-clock time (RunStats.Wall, and Latency as
// wall time to the slowest honest decision). Wall time is real, so it is
// not deterministic and carries no byte-identity guarantee; protocol
// outputs, in contrast, must still satisfy the protocols' agreement and
// validity guarantees on every backend — run.RunSpec.StatsFromOutputs
// checks exactly that on every trial, so a trial that breaks one fails.
// Network adversaries (internal/netadv) are injected into live transports
// by a delay-wrapping Transport that evaluates the same sim.DelayRule
// presets against the wall clock.
package backend

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"delphi/internal/auth"
	"delphi/internal/codec"
	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/run"
	"delphi/internal/runtime"
	"delphi/internal/sim"
	"delphi/internal/wire"
)

// DefaultTimeout bounds a live cluster run. It is far above any quick-scale
// protocol completion (milliseconds to a few seconds under adversarial
// delay) so hitting it means a wedged cluster, not a slow one.
const DefaultTimeout = 60 * time.Second

// Config is a live backend's run settings.
type Config struct {
	// Timeout bounds one cluster run; 0 means DefaultTimeout.
	Timeout time.Duration
	// NoBatch disables the drivers' per-step frame batching (see
	// runtime.WithFrameBatching) for A/B comparison.
	NoBatch bool
}

// Live executes specs as in-process goroutine clusters over runtime.Hub.
type Live Config

// TCP executes specs as loopback TCP clusters over runtime.TCPNet.
type TCP Config

// Run executes one spec as a session of one trial.
func (b Live) Run(spec run.RunSpec) (*run.RunStats, error) { return runOnce(b.Open, spec) }

// Open opens a session that runs specs of spec's size one after another on
// one hub.
func (b Live) Open(spec run.RunSpec) (run.BackendSession, error) {
	return openCluster(run.BackendLive, openHub, spec.N, b.Timeout, b.NoBatch)
}

// OpenService opens a hub of spec's size for concurrent service rounds,
// observed by spec.Obs when set; a zero timeout means b.Timeout.
func (b Live) OpenService(spec run.RunSpec, timeout time.Duration) (run.ServiceRunner, error) {
	return openService(run.BackendLive, openHub, spec.N, cmp.Or(timeout, b.Timeout), spec.Obs)
}

// Run executes one spec as a session of one trial: the mesh is wired, the
// trial runs, and the mesh is torn down.
func (b TCP) Run(spec run.RunSpec) (*run.RunStats, error) { return runOnce(b.Open, spec) }

// Open opens a session that runs specs of spec's size one after another on
// one wired loopback mesh.
func (b TCP) Open(spec run.RunSpec) (run.BackendSession, error) {
	return openCluster(run.BackendTCP, openTCPNet, spec.N, b.Timeout, b.NoBatch)
}

// OpenService opens a loopback mesh of spec's size for concurrent service
// rounds, observed by spec.Obs when set; a zero timeout means b.Timeout.
func (b TCP) OpenService(spec run.RunSpec, timeout time.Duration) (run.ServiceRunner, error) {
	return openService(run.BackendTCP, openTCPNet, spec.N, cmp.Or(timeout, b.Timeout), spec.Obs)
}

// fabric is the persistent substrate under a session: per-slot inboxes
// (runtime.MuxFabric, which runtime.Discard drains), per-epoch and per-instance
// endpoints, and cumulative observable frame drops. Hub and TCPNet satisfy it.
type fabric interface {
	runtime.MuxFabric
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
func runOnce(open func(run.RunSpec) (run.BackendSession, error), spec run.RunSpec) (*run.RunStats, error) {
	s, err := open(spec)
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
func newTrialScaffold(spec run.RunSpec, timeout time.Duration) (*trialScaffold, error) {
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
func runTrial(kind run.BackendKind, spec run.RunSpec, sc *trialScaffold, master []byte, noBatch bool,
	transports runtime.TransportFactory, release func(), tracks []*obs.Track) (*run.RunStats, error) {
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

// clusterStats assembles RunStats from a finished cluster run. A driver
// error fails the trial. When the trial context expired, the error names
// the honest slots that never decided, so a timed-out trial carries its
// cause.
func clusterStats(spec run.RunSpec, kind run.BackendKind, res *runtime.ClusterResult, acct *traffic, ctx context.Context, timeout time.Duration) (*run.RunStats, error) {
	if bad := res.Faults[runtime.FaultBadMAC]; bad != 0 {
		// Stale epochs are filtered before the MAC, so these were forged or
		// corrupted in a closed cluster: no number from this trial counts.
		return nil, fmt.Errorf("backend: %s: %d frames failed authentication", kind, bad)
	}
	for i, err := range res.Errs {
		if err != nil {
			// A driver that failed to encode a message dropped it unsent.
			return nil, fmt.Errorf("backend: %s: node %d: %w", kind, i, err)
		}
	}
	finals := make([]any, spec.N)
	at := make([]time.Duration, spec.N)
	var silent []int
	for _, i := range spec.HonestSlots() {
		finals[i] = res.Final(i)
		at[i] = res.FinalAt(i)
		if finals[i] == nil {
			silent = append(silent, i)
		}
	}
	stats, err := spec.StatsFromOutputs(finals, at)
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%w (cluster timed out after %v: honest slots %v have no output)", err, timeout, silent)
		}
		return nil, err
	}
	stats.Backend = kind
	stats.Wall = res.Wall
	stats.TotalBytes = acct.bytes.Load()
	stats.TotalMsgs = int(acct.msgs.Load())
	return stats, nil
}
