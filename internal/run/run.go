// Package run is the run layer: a RunSpec is one protocol execution, Run
// executes it on the simulator, and StatsFromOutputs checks any backend's
// outputs into RunStats. internal/backend's live and tcp sessions implement
// BackendSession and ServiceRunner, and internal/bench schedules specs.
package run

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"time"
	"weak"

	"delphi/internal/aaa"
	"delphi/internal/acs"
	"delphi/internal/binaa"
	"delphi/internal/byz"
	"delphi/internal/core"
	"delphi/internal/dist"
	"delphi/internal/dora"
	"delphi/internal/netadv"
	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/sim"
	"delphi/internal/smr"
)

// Protocol names a protocol under measurement.
type Protocol string

// The protocols the harness can run.
const (
	// ProtoDelphi is this paper's protocol.
	ProtoDelphi Protocol = "delphi"
	// ProtoFIN is the FIN-style ACS baseline (convex BA via common subset).
	ProtoFIN Protocol = "fin"
	// ProtoAbraham is Abraham et al.'s approximate agreement baseline.
	ProtoAbraham Protocol = "abraham"
	// ProtoDolev is Dolev et al.'s n=5t+1 approximate agreement.
	ProtoDolev Protocol = "dolev"
	// ProtoDora is Delphi followed by the DORA certificate round: t+1
	// signatures on the ε-rounded output.
	ProtoDora Protocol = "dora"
	// ProtoChakka is Chakka et al.'s oracle baseline: each node submits
	// n−t signed raw inputs to the SMR channel (see ChakkaChannel).
	ProtoChakka Protocol = "chakka"
)

// reads reports which of a spec's shared parameters the protocol reads:
// delphi, Delphi's parameters and NoCompression, as Delphi itself; rounds,
// only the halving-round count derived from them (RunSpec.rounds).
func (p Protocol) reads() (delphi, rounds bool) {
	switch p {
	case ProtoDelphi, ProtoDora:
		return true, false
	case ProtoAbraham, ProtoDolev:
		return false, true
	}
	return false, false
}

// Faults returns the protocol's fault budget at n nodes: the largest t it
// tolerates, under n >= 5t+1 for Dolev et al. and n >= 3t+1 for the others.
func (p Protocol) Faults(n int) int {
	if p == ProtoDolev {
		return (n - 1) / 5
	}
	return (n - 1) / 3
}

// RunSpec describes one protocol execution.
type RunSpec struct {
	// Protocol selects the protocol.
	Protocol Protocol
	// N and F define the system.
	N, F int
	// Env is the simulated testbed.
	Env sim.Environment
	// Seed drives the simulation.
	Seed int64
	// Inputs are the honest measurements (NaN = crashed node).
	Inputs []float64
	// Delphi holds Delphi's parameters, which DORA runs too. Abraham et al.
	// and Dolev read them for their round count ceil(log2(Δ/ε)).
	Delphi core.Params
	// NoCompression disables Delphi's §II-C wire encoding (ablation).
	NoCompression bool
	// Byzantine replaces the highest Byzantine slots with actively
	// adversarial processes (their Inputs entries are ignored). Byzantine
	// nodes are excluded from the honest statistics, like crashed nodes.
	// Only Delphi (alone or under DORA) has Byzantine behaviours: under any
	// other protocol a Byzantine slot is an error, and a NaN input (a crash)
	// is the fault to inject instead.
	Byzantine int
	// ByzKind selects the adversarial behaviour; the zero value is ByzSpam.
	ByzKind ByzKind
	// Adversary installs a network adversary (an adversarial message
	// scheduler) for the run; the zero value is a clean network. The
	// adversary's delay schedule derives deterministically from Seed, so
	// adversarial runs stay byte-identical across reruns and worker counts.
	Adversary netadv.Adversary
	// Backend selects the execution backend; the zero value is the
	// simulator. Run ignores it: bench.Engine routes a spec to its backend.
	Backend BackendKind
	// SimWorkers spreads the simulator's window shards over that many
	// workers (sim.WithParallelWindow); 0: the engine chooses. A bare Run
	// runs a 0 or 1 as one shard on the caller's goroutine, and a
	// bench.Engine fills a 0 from the cores its batch leaves spare.
	// Sim-only: live backends ignore it. A run is byte-identical across
	// reruns and worker counts: the count moves wall time only.
	SimWorkers int
	// Obs, when non-nil, attaches the observability recorder: protocol
	// phase spans land on per-node trace tracks (virtual time on the
	// simulator, wall time on live backends), transport/driver counters
	// land in the metrics registry, and RunStats.Metrics carries a
	// snapshot. Nil (the default) keeps every instrumentation hook a free
	// no-op. Obs never influences results — trials are byte-identical with
	// it on or off — and is excluded from session cell keys.
	Obs *obs.Recorder
}

// ByzKind names a Byzantine behaviour for RunSpec.Byzantine slots. Both
// attack Delphi's BinAA layer; the other protocols have none. A mute node
// is not a kind: it is a crash (a NaN input, or Scenario.Crashes).
type ByzKind int

// The available Byzantine behaviours.
const (
	// ByzSpam floods checkpoint instances near the honest inputs with junk
	// echoes.
	ByzSpam ByzKind = iota
	// ByzEquivocate sends conflicting round-1 init bundles to the two
	// halves of the network.
	ByzEquivocate
)

// RunStats summarises a protocol execution.
type RunStats struct {
	// Latency is the slowest honest node's decision time.
	Latency time.Duration
	// TotalBytes counts all bytes sent (MACs included).
	TotalBytes int64
	// TotalMsgs counts all messages sent.
	TotalMsgs int
	// Outputs holds the honest nodes' outputs.
	Outputs []float64
	// Spread is max−min over outputs.
	Spread float64
	// MeanAbsErr is the mean |output − mean(honest inputs)| (§VI-E).
	MeanAbsErr float64
	// SigSigns, SigVerifies and Pairings total the charged crypto work
	// (simulator only: the live backends charge none).
	SigSigns    int
	SigVerifies int
	Pairings    int
	// Backend records which backend produced the stats (zero = simulator).
	Backend BackendKind
	// Wall is the run's real elapsed time on a wall-clock backend
	// (live/tcp); it is zero on the simulator, whose Latency is virtual
	// time. Wall is measured, not simulated, so it varies run to run and
	// is excluded from byte-identity guarantees.
	Wall time.Duration
	// TransportDrops counts frames the live transports observably lost
	// during the run (mid-frame read failures, oversized frames, shutdown
	// races) — zero on the simulator and on any clean live run. Non-zero
	// values rule transport loss in when investigating cross-backend
	// disagreement.
	TransportDrops uint64
	// Metrics is the recorder's snapshot when the spec carried one (see
	// RunSpec.Obs); nil otherwise. Trace-derived wall-clock metrics vary
	// run to run, so Metrics carries no byte-identity guarantee — it is
	// diagnostics, not results.
	Metrics obs.Metrics
	// Finals and DecidedAt are the slot-indexed final outputs and decision
	// times StatsFromOutputs checked; only honest slots are meaningful.
	Finals    []any
	DecidedAt []time.Duration
}

// BackendKind names an execution backend for a RunSpec or scenario cell.
// The zero value selects the simulator, so existing specs and scenarios
// behave exactly as before the backend axis existed.
type BackendKind string

// The backend kinds the harness runs: the simulator here, the live kinds in
// internal/backend.
const (
	// BackendSim is the discrete-event simulator (Run). It is also what the
	// empty string means.
	BackendSim BackendKind = "sim"
	// BackendLive is an in-process goroutine cluster over runtime.Hub.
	BackendLive BackendKind = "live"
	// BackendTCP is a loopback TCP cluster over a runtime.TCPNet mesh.
	BackendTCP BackendKind = "tcp"
)

// String implements fmt.Stringer; the zero value renders as "sim".
func (k BackendKind) String() string {
	if k == "" {
		return string(BackendSim)
	}
	return string(k)
}

// BackendSession executes consecutive RunSpecs with setup amortised across
// them: bound listeners, warm connections, reusable simulator storage.
// Sessions are opened by the engine (one per cell key per worker), reused
// across every trial the worker runs for that cell, and closed when the
// batch ends — or immediately after a failed trial, so one crashed cluster
// can never poison later trials. A session is used by one goroutine at a
// time; it need not be safe for concurrent use.
type BackendSession interface {
	// Run executes one spec on the session's persistent substrate.
	Run(RunSpec) (*RunStats, error)
	// Close releases the session's resources (listeners, connections,
	// goroutines). It must be safe to call after a failed Run.
	Close() error
}

// ServiceRunner executes individual service rounds on a persistent live
// substrate. Unlike BackendSession.Run, RunRound must be safe for
// concurrent calls: the service keeps up to Window rounds in flight at
// once, each as its own multiplexed protocol instance.
type ServiceRunner interface {
	// RunRound executes one round's spec as a fresh protocol instance on
	// the shared fabric.
	RunRound(RunSpec) (*RunStats, error)
	// StaleFrames returns the demux's count of frames shed because their
	// instance was already collected.
	StaleFrames() uint64
	// Drops returns the transports' observable frame loss since open.
	Drops() uint64
	// Close tears the substrate down.
	Close() error
}

// ServiceOpen opens a live service substrate sized for spec's cluster;
// timeout bounds each round (0 means the backend default).
type ServiceOpen func(spec RunSpec, timeout time.Duration) (ServiceRunner, error)

// TrialSeed derives trial i's simulation seed from a base seed. The
// derivation is a splitmix64 step — deterministic, order-free, and
// well-dispersed, so trial seeds never collide with the consecutive
// base+i seeds the callers use for distinct experiments.
func TrialSeed(base int64, trial int) int64 {
	return int64(dist.Mix64(uint64(base) + uint64(trial+1)*0x9e3779b97f4a7c15))
}

// rounds derives the baselines' halving-round count from Delphi's
// parameterisation (range Δ down to agreement ε), for parity.
func (s RunSpec) rounds() int {
	return max(1, int(math.Ceil(math.Log2(s.Delphi.Delta/s.Delphi.Eps))))
}

// Key identifies the run the spec describes: specs with one key produce
// the same RunStats, so a batch runs them once. It zeroes every field the
// protocol does not read (see Protocol.reads: a protocol that reads Delphi's
// parameters only through rounds gets its count printed instead, and a
// Byzantine kind matters only with Byzantine slots), drops Obs, which never
// changes results, and prints the latency model by value.
func (s RunSpec) Key() string {
	k := s
	k.Obs, k.Env.Latency = nil, nil
	delphi, readsRounds := s.Protocol.reads()
	if !delphi {
		k.Delphi, k.NoCompression = core.Params{}, false
	}
	rounds := 0
	if readsRounds {
		rounds = s.rounds()
	}
	if s.Byzantine == 0 {
		k.ByzKind = ByzSpam
	}
	return fmt.Sprintf("%#v %d %T %#v", k, rounds, s.Env.Latency, reflect.Indirect(reflect.ValueOf(s.Env.Latency)))
}

// byzSlot reports whether slot i hosts a Byzantine process.
func (s RunSpec) byzSlot(i int) bool {
	return s.Byzantine > 0 && i >= s.N-s.Byzantine
}

// byzProcess builds the adversarial process for slot i of a Delphi run;
// both behaviours aim at the checkpoints around the honest inputs.
func (s RunSpec) byzProcess(i int) node.Process {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, j := range s.HonestSlots() {
		lo = math.Min(lo, s.Inputs[j])
		hi = math.Max(hi, s.Inputs[j])
	}
	if s.ByzKind == ByzEquivocate {
		return &byz.Equivocator{
			CheckA: binaa.IID{Level: 0, K: int32(math.Floor(lo / s.Delphi.Rho0))},
			CheckB: binaa.IID{Level: 0, K: int32(math.Ceil(hi / s.Delphi.Rho0))},
		}
	}
	return &byz.Spammer{
		Rng:      rand.New(rand.NewSource(TrialSeed(s.Seed, 1000+i))),
		Levels:   s.Delphi.Levels(),
		KMin:     int32(math.Floor(lo/s.Delphi.Rho0)) - 8,
		KMax:     int32(math.Ceil(hi/s.Delphi.Rho0)) + 8,
		PerRound: 4,
	}
}

// keyrings derives the oracle protocols' PKI from the spec's seed.
func (s RunSpec) keyrings() []dora.Keyring {
	return dora.GenKeyrings(s.N, uint64(s.Seed))
}

// Processes builds the spec's node processes: protocol instances for the
// live honest slots, adversarial processes for the Byzantine slots, and nil
// entries for crashed (NaN-input) slots. The same processes run unchanged
// under the simulator and the live runtime backends — node.Process is the
// shared contract.
func (s RunSpec) Processes() ([]node.Process, error) {
	if delphi, _ := s.Protocol.reads(); s.Byzantine > 0 && !delphi {
		return nil, fmt.Errorf("run: %s has no Byzantine behaviour; crash the slots (NaN inputs) instead", s.Protocol)
	}
	if len(s.Inputs) != s.N {
		return nil, fmt.Errorf("run: %d inputs for n=%d", len(s.Inputs), s.N)
	}
	cfg := node.Config{N: s.N, F: s.F}
	dcfg := core.Config{Config: cfg, Params: s.Delphi, DisableCompression: s.NoCompression}
	var keys []dora.Keyring
	if s.Protocol == ProtoDora || s.Protocol == ProtoChakka {
		keys = s.keyrings()
	}
	procs := make([]node.Process, s.N)
	for i, v := range s.Inputs {
		if s.byzSlot(i) {
			procs[i] = s.byzProcess(i)
			continue
		}
		if math.IsNaN(v) {
			continue
		}
		var (
			p   node.Process
			err error
		)
		switch s.Protocol {
		case ProtoDelphi:
			p, err = core.New(dcfg, v)
		case ProtoFIN:
			p, err = acs.New(acs.Config{Config: cfg, CoinSeed: uint64(s.Seed) + 0xc01}, v)
		case ProtoAbraham:
			p, err = aaa.NewAbraham(aaa.AbrahamConfig{Config: cfg, Rounds: s.rounds()}, v)
		case ProtoDolev:
			p, err = aaa.NewDolev(aaa.DolevConfig{N: s.N, F: s.F, Rounds: s.rounds()}, v)
		case ProtoDora:
			p, err = dora.New(dcfg, keys[i], v)
		case ProtoChakka:
			p, err = dora.NewChakka(cfg, keys[i], v)
		default:
			return nil, fmt.Errorf("run: unknown protocol %q", s.Protocol)
		}
		if err != nil {
			return nil, fmt.Errorf("run: node %d: %w", i, err)
		}
		procs[i] = p
	}
	return procs, nil
}

// HonestSlots lists the slots that carry honest, live protocol instances
// (not crashed, not Byzantine) — the nodes whose outputs count.
func (s RunSpec) HonestSlots() []int {
	out := make([]int, 0, s.N)
	for i, v := range s.Inputs {
		if !math.IsNaN(v) && !s.byzSlot(i) {
			out = append(out, i)
		}
	}
	return out
}

// StatsFromOutputs assembles the output-derived half of RunStats — Outputs,
// Spread, MeanAbsErr, and Latency — from each node's final output value and
// decision time, and keeps both as Finals and DecidedAt. finals and at are
// indexed by slot; crashed and Byzantine slots are ignored, and every honest
// slot must have decided. Backends add their own traffic and compute
// accounting on top.
//
// It is also the one place every run on every backend is checked against
// the paper's guarantees, so a run that breaks one fails instead of
// reporting stats:
//
//   - ε-agreement: Spread ≤ ε;
//   - validity: no honest output is NaN or lies outside the honest input
//     range [lo, hi] by more than max(ρ0, hi−lo) for Delphi and DORA (its
//     relaxed min-max validity) or at all for the baselines;
//   - Abraham et al. and Dolev et al.: every round halves the honest range
//     (see halves);
//   - DORA: every honest certificate verifies against the spec's keyring;
//   - Chakka et al.: each honest submission's own median is valid, and the
//     output every oracle adopts, so the one checked for agreement, is the
//     median of the submission ChakkaChannel orders first.
//
// Both bounds allow 1e-9 of float rounding.
func (s RunSpec) StatsFromOutputs(finals []any, at []time.Duration) (*RunStats, error) {
	const ulps = 1e-9
	honest := s.HonestSlots()
	if len(honest) == 0 {
		// Every slot was crashed or Byzantine: there is no honest
		// measurement to report, only NaN means and ±Inf spreads.
		return nil, fmt.Errorf("run: %s run has no live honest node (n=%d)", s.Protocol, s.N)
	}
	var honestSum float64
	inLo, inHi := math.Inf(1), math.Inf(-1)
	for _, i := range honest {
		honestSum += s.Inputs[i]
		inLo = math.Min(inLo, s.Inputs[i])
		inHi = math.Max(inHi, s.Inputs[i])
	}
	honestMean := honestSum / float64(len(honest))
	slack := ulps
	if delphi, _ := s.Protocol.reads(); delphi {
		slack += math.Max(s.Delphi.Rho0, inHi-inLo)
	}
	stats := &RunStats{Backend: s.Backend, Finals: finals, DecidedAt: at}
	for _, i := range honest {
		if finals[i] == nil {
			return nil, fmt.Errorf("run: %s node %d produced no output", s.Protocol, i)
		}
		out, err := extractOutput(finals[i])
		if err != nil {
			return nil, fmt.Errorf("run: node %d: %w", i, err)
		}
		if math.IsNaN(out) || out < inLo-slack || out > inHi+slack {
			return nil, fmt.Errorf("run: %s validity %w: node %d output %g outside honest inputs [%g, %g] ± %g",
				s.Protocol, ErrGuarantee, i, out, inLo, inHi, slack)
		}
		stats.Outputs = append(stats.Outputs, out)
		if at[i] > stats.Latency {
			stats.Latency = at[i]
		}
	}
	if err := s.halves(finals, honest, inLo, inHi); err != nil {
		return nil, err
	}
	switch s.Protocol {
	case ProtoDora:
		pubs := s.keyrings()[0].Pubs
		for _, i := range honest {
			cert, _ := finals[i].(dora.Certificate) // any other output has no signers
			if err := cert.Verify(pubs, s.F); err != nil {
				return nil, fmt.Errorf("run: dora node %d certificate %w: %w", i, ErrGuarantee, err)
			}
		}
	case ProtoChakka:
		first, _ := ChakkaChannel(finals, at).First()
		sub, ok := finals[first.From].(dora.ChakkaSubmission)
		if !ok {
			return nil, fmt.Errorf("run: chakka node %d output %T is not a submission", first.From, finals[first.From])
		}
		for k := range stats.Outputs {
			stats.Outputs[k] = sub.Median()
		}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, out := range stats.Outputs {
		lo = math.Min(lo, out)
		hi = math.Max(hi, out)
		stats.MeanAbsErr += math.Abs(out - honestMean)
	}
	stats.Spread = hi - lo
	if stats.Spread > s.Delphi.Eps+ulps {
		return nil, fmt.Errorf("run: %s agreement %w: spread %g > ε %g", s.Protocol, ErrGuarantee, stats.Spread, s.Delphi.Eps)
	}
	stats.MeanAbsErr /= float64(len(stats.Outputs))
	return stats, nil
}

// ErrGuarantee is wrapped by every StatsFromOutputs error that reports a
// broken guarantee: validity, ε-agreement, per-round halving or a DORA
// certificate. Test for it with errors.Is. Its text is the word each such
// message already reads ("validity violated").
var ErrGuarantee = errors.New("violated")

// roundValuer is a result that carries the node's state after each round.
type roundValuer interface {
	RoundValue(r int) (float64, bool)
}

// halvingULPs is how far, in ulps of the largest value involved, a round's
// honest range may exceed half the previous one's: each state is one rounded
// midpoint.
const halvingULPs = 4

// halves checks the invariant Abraham et al.'s and Dolev et al.'s proofs rest
// on, round by round: the honest states after round r span at most half of
// what they spanned after round r−1, round 0 being the honest inputs [lo, hi].
// It reads what each final carries and allocates nothing; outputs of other
// protocols carry no rounds, and pass.
func (s RunSpec) halves(finals []any, honest []int, lo, hi float64) error {
	for r := 1; ; r++ {
		rlo, rhi, ilo, ihi := math.Inf(1), math.Inf(-1), 0, 0
		for _, i := range honest {
			rv, ok := finals[i].(roundValuer)
			v := 0.0
			if ok {
				v, ok = rv.RoundValue(r)
			}
			if !ok {
				return nil
			}
			if v < rlo {
				rlo, ilo = v, i
			}
			if v > rhi {
				rhi, ihi = v, i
			}
		}
		mag := max(math.Abs(lo), math.Abs(hi), math.Abs(rlo), math.Abs(rhi))
		if tol := halvingULPs * (math.Nextafter(mag, math.Inf(1)) - mag); rhi-rlo > (hi-lo)/2+tol {
			return fmt.Errorf("run: %s halving %w: round %d did not halve the honest range: nodes %d and %d hold %g and %g, %g apart, over half of round %d's %g",
				s.Protocol, ErrGuarantee, r, ilo, ihi, rlo, rhi, rhi-rlo, r-1, hi-lo)
		}
		lo, hi = rlo, rhi
	}
}

// Run executes the spec in the simulator. A one-shot run is a session of
// length one: it borrows the sim.Scratch the previous one-shot run handed
// back (event arenas, per-node slabs, parallel shards — ~100 MB at n=1000)
// instead of allocating and zeroing its own, which is invisible in results
// (TestOneShotReuseInvisible). The Scratch is held weakly, so the collector
// reclaims it while no run is in flight, and by one slot, so concurrent
// callers are safe but only one of them finds it. Only a run that returns
// hands its Scratch on: one that panics (a lookahead-violating delay rule)
// strands it.
func Run(spec RunSpec) (*RunStats, error) {
	scratch := borrowScratch()
	stats, err := runSim(spec, scratch)
	lendScratch(scratch)
	return stats, err
}

// lastScratch is the one slot one-shot runs pass their Scratch through.
var lastScratch struct {
	sync.Mutex
	p weak.Pointer[sim.Scratch]
}

// borrowScratch empties the slot and returns what it held, or a fresh
// Scratch when another run holds it or the collector took it.
func borrowScratch() *sim.Scratch {
	lastScratch.Lock()
	s := lastScratch.p.Value()
	lastScratch.p = weak.Pointer[sim.Scratch]{}
	lastScratch.Unlock()
	if s == nil {
		s = new(sim.Scratch)
	}
	return s
}

// lendScratch puts a completed run's Scratch in the slot. The weak pointer
// alone would let a collection that began during the run, and scanned its
// stack after the hand-back, take the Scratch before the next run borrows
// it; that run would rebuild its arenas (28 MB at Dolev n=1000) as the
// collector's timing fell. An object with a finalizer keeps what it points
// to through the cycle that finds it unreachable and until the finalizer has
// run, so an empty-finalizer scratchHold keeps the Scratch through the first
// collection after the hand-back (TestOneShotRetention).
func lendScratch(s *sim.Scratch) {
	runtime.SetFinalizer(&scratchHold{s}, func(*scratchHold) {})
	lastScratch.Lock()
	lastScratch.p = weak.Make(s)
	lastScratch.Unlock()
}

// scratchHold is lendScratch's holder.
type scratchHold struct{ s *sim.Scratch }

// OpenSim opens a simulator session: one sim.Scratch, so an engine worker's
// trials share the event queue's backing array and per-node bookkeeping
// instead of re-allocating them every trial. Scratch reuse is invisible in
// results (pinned by TestSimGoldenByteIdentity and the engine determinism
// tests).
func OpenSim(RunSpec) (BackendSession, error) { return &simSession{scratch: new(sim.Scratch)}, nil }

type simSession struct {
	scratch *sim.Scratch
}

// Run implements BackendSession.
func (s *simSession) Run(spec RunSpec) (*RunStats, error) { return runSim(spec, s.scratch) }

// Close implements BackendSession; a scratch holds no external resources.
func (s *simSession) Close() error { return nil }

// runSim executes the spec in the simulator on scratch.
func runSim(spec RunSpec, scratch *sim.Scratch) (*RunStats, error) {
	cfg := node.Config{N: spec.N, F: spec.F}
	procs, err := spec.Processes()
	if err != nil {
		return nil, err
	}
	if err := spec.Adversary.Validate(); err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	opts := []sim.Option{sim.WithMaxTime(4 * time.Hour)}
	if spec.Obs != nil {
		opts = append(opts, sim.WithRecorder(spec.Obs))
	}
	var hv sim.HistoryView
	if spec.Adversary.NeedsHistory() {
		// Adaptive adversaries read the run's own delivered-message history;
		// a fresh per-run History keeps adaptive runs pure functions of the
		// committed schedule (byte-identical across reruns/worker counts).
		hist := sim.NewHistory(spec.N, netadv.HistoryEpoch)
		opts = append(opts, sim.WithHistory(hist))
		hv = hist
	}
	if rule := spec.Adversary.RuleWith(spec.N, spec.F, spec.Seed, hv); rule != nil {
		opts = append(opts, sim.WithDelayRule(rule))
	}
	opts = append(opts, sim.WithScratch(scratch), sim.WithParallelWindow(spec.SimWorkers))
	runner, err := sim.NewRunner(cfg, spec.Env, spec.Seed, procs, opts...)
	if err != nil {
		return nil, err
	}
	res := runner.Run()

	finals := make([]any, spec.N)
	at := make([]time.Duration, spec.N)
	for _, i := range spec.HonestSlots() {
		st := res.Stats[i]
		if len(st.Output) == 0 {
			return nil, fmt.Errorf("run: %s node %d produced no output (vtime=%v)", spec.Protocol, i, res.Time)
		}
		finals[i] = st.Output[len(st.Output)-1]
		at[i] = st.OutputAt
	}
	stats, err := spec.StatsFromOutputs(finals, at)
	if err != nil {
		return nil, err
	}
	stats.TotalBytes = res.TotalBytes
	stats.TotalMsgs = res.TotalMsgs
	for _, i := range spec.HonestSlots() {
		stats.SigSigns += res.Stats[i].Compute.SigSigns
		stats.SigVerifies += res.Stats[i].Compute.SigVerifies
		stats.Pairings += res.Stats[i].Compute.Pairings
	}
	if spec.Obs != nil {
		stats.Metrics = spec.Obs.Snapshot()
	}
	return stats, nil
}

func extractOutput(v any) (float64, error) {
	switch r := v.(type) {
	case core.Result:
		return r.Output, nil
	case acs.Result:
		return r.Output, nil
	case aaa.AbrahamResult:
		return r.Output, nil
	case aaa.DolevResult:
		return r.Output, nil
	case dora.Certificate:
		return r.DelphiResult.Output, nil
	case dora.ChakkaSubmission:
		return r.Median(), nil
	default:
		return 0, fmt.Errorf("unexpected output type %T", v)
	}
}

// ChakkaChannel submits every Chakka et al. submission among finals to an
// SMR channel, from its slot at its decision time. Chakka et al.'s oracles
// agree through the channel, not among themselves: every oracle adopts the
// median of the channel's first submission. finals and at are slot-indexed,
// as in RunStats.
func ChakkaChannel(finals []any, at []time.Duration) *smr.Channel {
	ch := &smr.Channel{}
	for i, v := range finals {
		if sub, ok := v.(dora.ChakkaSubmission); ok {
			ch.Submit(smr.Submission{From: node.ID(i), At: at[i], VerifyCost: sub.VerifyCost})
		}
	}
	return ch
}
