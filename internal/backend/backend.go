// Package backend is the execution-backend subsystem: one RunSpec, three
// ways to execute it. The simulator backend wraps bench.Run (byte-identical
// to calling it directly); the live backend runs the same node.Process
// instances as a goroutine-per-node cluster over an in-memory hub
// (runtime.Hub); the tcp backend runs them over loopback TCP with
// length-prefixed, HMAC-authenticated frames (runtime.NewTCP).
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

	"delphi/internal/bench"
	"delphi/internal/codec"
	"delphi/internal/node"
	"delphi/internal/runtime"
	"delphi/internal/sim"
	"delphi/internal/wire"
)

// Caps mirrors bench.BackendCaps for callers holding a Backend value.
type Caps = bench.BackendCaps

// Backend executes RunSpecs on some execution substrate.
type Backend interface {
	// Name returns the bench registry kind the backend answers to.
	Name() bench.BackendKind
	// Caps declares determinism and wall-clock semantics.
	Caps() Caps
	// Run executes one spec and returns its result.
	Run(spec bench.RunSpec) (RunResult, error)
}

// RunResult is a backend execution's outcome.
type RunResult struct {
	// Stats is the harness summary (outputs, spread, latency, traffic).
	Stats *bench.RunStats
	// Wall is the run's real elapsed time; zero on the simulator. It is
	// also recorded in Stats.Wall.
	Wall time.Duration
}

// DefaultTimeout bounds a live cluster run. It is far above any quick-scale
// protocol completion (milliseconds to a few seconds under adversarial
// delay) so hitting it means a wedged cluster, not a slow one.
const DefaultTimeout = 60 * time.Second

// Sim executes specs on the discrete-event simulator — a trivial wrapper
// over bench.Run, so results are byte-identical to the pre-backend path.
type Sim struct{}

// Name implements Backend.
func (Sim) Name() bench.BackendKind { return bench.BackendSim }

// Caps implements Backend: the simulator is deterministic and measures
// virtual, not wall, time.
func (Sim) Caps() Caps { return Caps{Deterministic: true} }

// Run implements Backend.
func (Sim) Run(spec bench.RunSpec) (RunResult, error) {
	st, err := bench.Run(spec)
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{Stats: st}, nil
}

// Live executes specs as in-process goroutine clusters over runtime.Hub.
type Live struct {
	// Timeout bounds one cluster run; 0 means DefaultTimeout.
	Timeout time.Duration
	// NoBatch disables the drivers' per-step frame batching (see
	// runtime.WithFrameBatching) for A/B comparison.
	NoBatch bool
}

// Name implements Backend.
func (Live) Name() bench.BackendKind { return bench.BackendLive }

// Caps implements Backend: goroutine scheduling makes wall measurements
// (and message interleavings) non-deterministic.
func (Live) Caps() Caps { return Caps{WallClock: true} }

// Run implements Backend.
func (b Live) Run(spec bench.RunSpec) (RunResult, error) {
	return runCluster(spec, bench.BackendLive, b.Timeout, nil, b.NoBatch, nil)
}

// TCP executes specs as loopback TCP clusters over runtime.NewTCP.
type TCP struct {
	// Timeout bounds one cluster run; 0 means DefaultTimeout.
	Timeout time.Duration
	// NoBatch disables the drivers' per-step frame batching (see
	// runtime.WithFrameBatching) for A/B comparison.
	NoBatch bool
}

// Name implements Backend.
func (TCP) Name() bench.BackendKind { return bench.BackendTCP }

// Caps implements Backend.
func (TCP) Caps() Caps { return Caps{WallClock: true} }

// Run implements Backend.
func (b TCP) Run(spec bench.RunSpec) (RunResult, error) {
	factory, cleanup, drops, err := tcpFactory(spec.N, spec.Obs)
	if err != nil {
		return RunResult{}, err
	}
	defer cleanup()
	return runCluster(spec, bench.BackendTCP, b.Timeout, factory, b.NoBatch, drops)
}

// trialScaffold is the per-trial plumbing every live execution needs,
// built identically by the per-trial path and the persistent sessions so
// the two cannot drift: processes, adversary wrapper, honest-exit set, and
// the timeout. Trials are over when every honest node has decided and
// halted; Byzantine processes (a spammer never halts) must not hold the
// cluster open until the timeout — hence WaitFor(honest).
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

// runCluster is the shared live execution path: build the spec's processes,
// wrap every transport with adversary delay + traffic accounting, run the
// cluster, and assemble RunStats from the honest nodes' final outputs and
// wall-clock decision times. drops, when non-nil, reads the transports'
// cumulative observable frame-loss counter (per-trial transports start at
// zero, so no delta is needed here).
func runCluster(spec bench.RunSpec, kind bench.BackendKind, timeout time.Duration, factory runtime.TransportFactory, noBatch bool, drops func() uint64) (RunResult, error) {
	sc, err := newTrialScaffold(spec, timeout)
	if err != nil {
		return RunResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), sc.timeout)
	defer cancel()

	opts := []runtime.ClusterOption{
		runtime.WithTransportWrap(sc.wrap),
		runtime.WithWaitFor(sc.honest),
		runtime.WithFrameBatching(!noBatch),
		runtime.WithObs(spec.Obs),
	}
	if factory != nil {
		opts = append(opts, runtime.WithTransports(factory))
	}
	cfg := node.Config{N: spec.N, F: spec.F}
	master := []byte(fmt.Sprintf("delphi-backend-%s-%d", kind, spec.Seed))
	res, err := runtime.RunCluster(ctx, cfg, sc.procs, master, sc.reg, opts...)
	if err != nil {
		return RunResult{}, err
	}
	r, err := clusterStats(spec, kind, res, sc.acct, ctx, sc.timeout)
	if err != nil {
		return RunResult{}, err
	}
	if drops != nil {
		r.Stats.TransportDrops = drops()
	}
	return r, nil
}

// clusterStats assembles a RunResult from a finished cluster run — shared
// by the per-trial path and the persistent sessions.
func clusterStats(spec bench.RunSpec, kind bench.BackendKind, res *runtime.ClusterResult, acct *traffic, ctx context.Context, timeout time.Duration) (RunResult, error) {
	if bad := res.Faults[runtime.FaultBadMAC]; bad != 0 {
		// Stale epochs are filtered before the MAC, so these were forged or
		// corrupted in a closed cluster: no number from this trial counts.
		return RunResult{}, fmt.Errorf("backend: %s: %d frames failed authentication", kind, bad)
	}
	finals := make([]any, spec.N)
	at := make([]time.Duration, spec.N)
	for _, i := range spec.HonestSlots() {
		finals[i] = res.Final(i)
		at[i] = res.FinalAt(i)
		if finals[i] == nil && res.Errs[i] != nil {
			return RunResult{}, fmt.Errorf("node %d: %w", i, res.Errs[i])
		}
	}
	stats, err := spec.StatsFromOutputs(finals, at)
	if err != nil {
		if ctx.Err() != nil {
			return RunResult{}, fmt.Errorf("%w (cluster timed out after %v)", err, timeout)
		}
		return RunResult{}, err
	}
	stats.Backend = kind
	stats.Wall = res.Wall
	stats.TotalBytes = acct.bytes.Load()
	stats.TotalMsgs = int(acct.msgs.Load())
	return RunResult{Stats: stats, Wall: res.Wall}, nil
}

// register installs b in the bench registry, with session support when the
// backend implements SessionBackend.
func register(b Backend) {
	bench.MustRegisterBackend(b.Name(), b.Caps(), func(spec bench.RunSpec) (*bench.RunStats, error) {
		r, err := b.Run(spec)
		if err != nil {
			return nil, err
		}
		return r.Stats, nil
	})
	if sb, ok := b.(SessionBackend); ok {
		bench.MustRegisterBackendSessions(b.Name(), bench.SessionSupport{
			Key: sb.SessionKey,
			Open: func(spec bench.RunSpec) (bench.BackendSession, error) {
				s, err := sb.OpenSession(spec)
				if err != nil {
					return nil, err
				}
				return benchSession{s: s}, nil
			},
		})
	}
}

func init() {
	register(Live{})
	register(TCP{})
}
