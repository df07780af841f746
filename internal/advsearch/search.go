// Package advsearch searches the network-adversary space for a protocol's
// empirical worst case.
//
// The space is the cross product of netadv.Adversary's knobs — kind ×
// severity × onset × adaptivity — and the search runs entirely
// on the simulator backend, where a probe run costs hundreds of
// nanoseconds per event, so thousands of probes are cheap. The loop is
// successive halving (score every candidate at a small trial budget, keep
// the top fraction, double the budget, repeat) followed by a simulated-
// annealing refinement around the halving winner. Every probe's seed
// derives from the search seed via run.TrialSeed and every accept/reject
// draw comes from a splitmix64 stream over the same seed, so a search is a
// pure function of its Config: byte-identical profiles across reruns. Each
// probe runs one window shard: at the n ≤ 16 a search probes, one shard is
// the fastest.
//
// The output is a Profile: the winning configuration, its score against the
// clean network and the best fixed preset (re-scored at the same final
// budget, so the comparison is apples-to-apples and the winner is the
// argmax over both by construction), the score trajectory, and an evidence
// trace from an instrumented run of the winner. A probe that breaks one of
// the protocol's guarantees (run.ErrGuarantee) ends the search: the profile
// then carries that probe as its Violation, the search's finding.
package advsearch

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/dist"
	"delphi/internal/netadv"
	"delphi/internal/obs"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// Objective names what a probe maximises. Higher scores are worse for the
// protocol: the search looks for damage.
type Objective string

// The available objectives.
const (
	// ObjLatency maximises decision latency (ms, virtual time) — the
	// paper's headline metric.
	ObjLatency Objective = "latency"
	// ObjSpread maximises the honest-output spread — pressure on the
	// δ-window that defines approximate agreement's validity.
	ObjSpread Objective = "spread"
	// ObjEvents maximises processed deliveries (the sim.events counter) —
	// scheduling work the adversary forces the protocol to do.
	ObjEvents Objective = "events"
	// ObjBytes maximises total bytes sent — bandwidth damage.
	ObjBytes Objective = "bytes"
)

// Validate rejects unknown objectives.
func (o Objective) Validate() error {
	switch o {
	case ObjLatency, ObjSpread, ObjEvents, ObjBytes:
		return nil
	}
	return fmt.Errorf("advsearch: unknown objective %q", string(o))
}

// score extracts the objective's value from one probe's stats.
func (o Objective) score(st *run.RunStats) float64 {
	switch o {
	case ObjSpread:
		return st.Spread
	case ObjEvents:
		return float64(st.Metrics.Value("sim.events"))
	case ObjBytes:
		return float64(st.TotalBytes)
	default: // ObjLatency
		return float64(st.Latency) / float64(time.Millisecond)
	}
}

// Space is the searched region of the adversary space: the cross product of
// its axes. Empty axes default (DefaultSpace fills all of them).
type Space struct {
	Kinds      []netadv.Kind
	Severities []float64
	Onsets     []time.Duration
	Adaptive   []bool
}

// DefaultSpace is the full preset space at two severities, with and without
// adaptivity, active from the start or after a 250 ms onset: 5 kinds × 2
// severities × 2 onsets × 2 adaptivity = 40 candidates.
func DefaultSpace() Space {
	return Space{
		Kinds:      []netadv.Kind{netadv.SlowF, netadv.Gray, netadv.Partition, netadv.CoinRush, netadv.JitterStorm},
		Severities: []float64{1, 2},
		Onsets:     []time.Duration{0, 250 * time.Millisecond},
		Adaptive:   []bool{false, true},
	}
}

// Candidates enumerates the space in a fixed nested-loop order (kind-major),
// which is part of the search's determinism contract.
func (s Space) Candidates() []netadv.Adversary {
	d := DefaultSpace()
	if len(s.Kinds) == 0 {
		s.Kinds = d.Kinds
	}
	if len(s.Severities) == 0 {
		s.Severities = d.Severities
	}
	if len(s.Onsets) == 0 {
		s.Onsets = d.Onsets
	}
	if len(s.Adaptive) == 0 {
		s.Adaptive = d.Adaptive
	}
	var out []netadv.Adversary
	for _, k := range s.Kinds {
		for _, sev := range s.Severities {
			for _, on := range s.Onsets {
				for _, ad := range s.Adaptive {
					out = append(out, netadv.Adversary{
						Kind: k, Severity: sev, Onset: on, Adaptive: ad,
					})
				}
			}
		}
	}
	return out
}

// Config parameterises one search.
type Config struct {
	// Protocol is the victim.
	Protocol run.Protocol
	// N sizes the system; the fault budget is the protocol's,
	// Protocol.Faults(N). Probes run on the sim.AWS() testbed.
	N int
	// Seed drives every probe and every annealing draw.
	Seed int64
	// Objective selects the score; empty means ObjLatency.
	Objective Objective
	// Space is the searched region; the zero value means DefaultSpace.
	Space Space
	// Rungs is the number of successive-halving rounds (default 3). The
	// top third of the candidates survives each rung, and the
	// per-candidate trial budget, one on the first rung, doubles each rung.
	Rungs int
	// AnnealSteps is the simulated-annealing refinement length (default 8).
	AnnealSteps int
}

// TrajPoint is one step of the search's score trajectory.
type TrajPoint struct {
	// Stage labels the step ("rung 1", "anneal", "final").
	Stage string
	// Probes is the cumulative probe count after the step.
	Probes int
	// Best renders the incumbent configuration.
	Best string
	// Score is the incumbent's score.
	Score float64
}

// Profile is a search's result: the empirical worst-case adversary for one
// (protocol, objective) pair, with its evidence.
type Profile struct {
	// Protocol and Objective identify the search.
	Protocol  run.Protocol
	Objective Objective
	// N, F, and Seed record the sizing.
	N, F int
	Seed int64

	// Best is the worst-case configuration found; BestScore its score at
	// the final trial budget.
	Best      netadv.Adversary
	BestScore float64
	// CleanScore is the clean network's score at the same budget.
	CleanScore float64
	// PresetBest is the strongest fixed preset (default severity, no
	// adaptivity) at the same budget, PresetBestScore its score. Best is
	// the argmax over the searched candidates AND these presets, so
	// BestScore ≥ PresetBestScore always.
	PresetBest      netadv.Adversary
	PresetBestScore float64

	// Trajectory is the per-stage incumbent history.
	Trajectory []TrajPoint

	// Probes counts the probe runs, a violating one included.
	Probes int

	// Trace is the winner's evidence: the Perfetto trace of one
	// instrumented run (byte-identical across reruns on the simulator).
	Trace       []byte
	TraceEvents int

	// Violation, when non-nil, is the probe that broke a guarantee. The
	// search stopped there, so the fields above hold what it had reached.
	Violation *Violation
}

// Violation is a probe run whose outputs broke one of the protocol's
// guarantees (run.ErrGuarantee): its adversary, its seed and the check's
// error text, enough to rerun it.
type Violation struct {
	Adversary netadv.Adversary
	Seed      int64
	Err       string
}

// scored pairs a candidate with its latest score.
type scored struct {
	adv   netadv.Adversary
	score float64
}

// searcher carries one search's fixed inputs.
type searcher struct {
	cfg    Config
	prof   *Profile
	inputs []float64
	params core.Params
	trial  int // global probe counter: every probe gets a distinct seed
}

// Search runs the configured worst-case search on the simulator backend. A
// probe that breaks a guarantee is no error: Search returns the profile with
// its Violation set.
func Search(cfg Config) (*Profile, error) {
	if cfg.Protocol == "" {
		return nil, fmt.Errorf("advsearch: no protocol")
	}
	if cfg.N < 4 {
		return nil, fmt.Errorf("advsearch: need n >= 4, got %d", cfg.N)
	}
	if cfg.Objective == "" {
		cfg.Objective = ObjLatency
	}
	if err := cfg.Objective.Validate(); err != nil {
		return nil, err
	}
	if cfg.Rungs <= 0 {
		cfg.Rungs = 3
	}
	if cfg.AnnealSteps < 0 {
		cfg.AnnealSteps = 8
	}
	s := &searcher{
		cfg:    cfg,
		inputs: bench.OracleInputs(cfg.N, 41000, 20, cfg.Seed),
		params: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2},
	}
	s.prof = &Profile{
		Protocol:  cfg.Protocol,
		Objective: cfg.Objective,
		N:         cfg.N,
		F:         cfg.Protocol.Faults(cfg.N),
		Seed:      cfg.Seed,
	}

	pool := cfg.Space.Candidates()
	if len(pool) == 0 {
		return nil, fmt.Errorf("advsearch: empty candidate space")
	}
	for _, adv := range pool {
		if err := adv.Validate(); err != nil {
			return nil, err
		}
	}

	if err := s.search(pool); err != nil && s.prof.Violation == nil {
		return nil, err
	}
	return s.prof, nil
}

// search runs the halving rungs, the annealing and the baselines over pool,
// then the winner's evidence run, filling s.prof.
func (s *searcher) search(pool []netadv.Adversary) error {
	// Successive halving: score everyone, keep the top third, double the
	// budget.
	trials := 1
	var ranked []scored
	for rung := 1; rung <= s.cfg.Rungs && len(pool) > 0; rung++ {
		ranked = ranked[:0]
		for _, adv := range pool {
			sc, err := s.scoreAdv(adv, trials)
			if err != nil {
				return err
			}
			ranked = append(ranked, scored{adv: adv, score: sc})
		}
		sortScored(ranked)
		s.prof.Trajectory = append(s.prof.Trajectory, TrajPoint{
			Stage:  fmt.Sprintf("rung %d", rung),
			Probes: s.prof.Probes,
			Best:   ranked[0].adv.String(),
			Score:  ranked[0].score,
		})
		keep := int(math.Ceil(float64(len(ranked)) / 3))
		if keep < 1 {
			keep = 1
		}
		pool = pool[:0]
		for _, r := range ranked[:keep] {
			pool = append(pool, r.adv)
		}
		if rung < s.cfg.Rungs {
			trials *= 2
		}
	}
	finalTrials := trials

	// Re-score the halving winner at the final budget, then refine it by
	// simulated annealing on the same budget.
	best := ranked[0].adv
	bestScore, err := s.scoreAdv(best, finalTrials)
	if err != nil {
		return err
	}
	best, bestScore, err = s.anneal(best, bestScore, finalTrials)
	if err != nil {
		return err
	}

	// Baselines at the same budget: the clean network and every fixed
	// preset. The winner is the argmax over the search result and the
	// presets, so the profile's "adaptive search beats fixed presets" claim
	// is checked against presets measured identically, and BestScore can
	// never fall below PresetBestScore.
	clean, err := s.scoreAdv(netadv.Adversary{}, finalTrials)
	if err != nil {
		return err
	}
	s.prof.CleanScore = clean
	presetBest := netadv.Adversary{}
	presetScore := math.Inf(-1)
	for _, p := range netadv.Presets() {
		sc, err := s.scoreAdv(p, finalTrials)
		if err != nil {
			return err
		}
		if sc > presetScore {
			presetBest, presetScore = p, sc
		}
		if sc > bestScore || (sc == bestScore && p.String() < best.String()) {
			best, bestScore = p, sc
		}
	}
	s.prof.Best = best
	s.prof.BestScore = bestScore
	s.prof.PresetBest = presetBest
	s.prof.PresetBestScore = presetScore
	s.prof.Trajectory = append(s.prof.Trajectory, TrajPoint{
		Stage:  "final",
		Probes: s.prof.Probes,
		Best:   best.String(),
		Score:  bestScore,
	})

	// Evidence: one instrumented run of the winner; the trace is a pure
	// schedule fact on the simulator, so it reproduces byte-for-byte.
	rec := obs.New()
	if _, err := s.probe(best, 0, rec); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		return err
	}
	s.prof.Trace = buf.Bytes()
	s.prof.TraceEvents = rec.EventCount()
	return nil
}

// sortScored orders by score descending, ties broken by the rendered
// configuration — a total order, so rung survivors are deterministic.
func sortScored(rs []scored) {
	sort.Slice(rs, func(a, b int) bool {
		if rs[a].score != rs[b].score {
			return rs[a].score > rs[b].score
		}
		return rs[a].adv.String() < rs[b].adv.String()
	})
}

// scoreAdv probes adv `trials` times and returns the mean score. Each probe
// counts in the profile's Probes.
func (s *searcher) scoreAdv(adv netadv.Adversary, trials int) (float64, error) {
	total := 0.0
	for t := 0; t < trials; t++ {
		s.prof.Probes++
		sc, err := s.probe(adv, s.trial, nil)
		if err != nil {
			return 0, err
		}
		s.trial++
		total += sc
	}
	return total / float64(trials), nil
}

// probe executes one simulator run of adv and returns its score. rec, when
// non-nil, replaces the probe's private recorder (evidence runs). A run that
// breaks a guarantee sets the profile's Violation.
func (s *searcher) probe(adv netadv.Adversary, trial int, rec *obs.Recorder) (float64, error) {
	if rec == nil {
		rec = obs.New()
	}
	seed := run.TrialSeed(s.cfg.Seed, trial)
	st, err := run.Run(run.RunSpec{
		Protocol:  s.cfg.Protocol,
		N:         s.cfg.N,
		F:         s.prof.F,
		Env:       sim.AWS(),
		Seed:      seed,
		Inputs:    s.inputs,
		Delphi:    s.params,
		Adversary: adv,
		Obs:       rec,
	})
	if errors.Is(err, run.ErrGuarantee) {
		s.prof.Violation = &Violation{Adversary: adv, Seed: seed, Err: err.Error()}
	}
	if err != nil {
		return 0, fmt.Errorf("advsearch: probe %s: %w", adv, err)
	}
	return s.cfg.Objective.score(st), nil
}

// anneal refines the incumbent by deterministic simulated annealing:
// mutate, re-probe, and accept by the Metropolis rule on the relative
// shortfall; temperature cools geometrically. All randomness flows from the
// search seed through a splitmix64 stream.
func (s *searcher) anneal(cur netadv.Adversary, curScore float64, trials int) (netadv.Adversary, float64, error) {
	if s.cfg.AnnealSteps == 0 {
		return cur, curScore, nil
	}
	rng := newRng(s.cfg.Seed, annealSalt)
	best, bestScore := cur, curScore
	temp := 0.15
	for step := 0; step < s.cfg.AnnealSteps; step++ {
		cand := mutate(cur, rng)
		sc, err := s.scoreAdv(cand, trials)
		if err != nil {
			return cur, curScore, err
		}
		if sc > bestScore {
			best, bestScore = cand, sc
		}
		// Accept uphill always; downhill with probability exp(rel/temp),
		// rel being the relative shortfall (negative).
		rel := (sc - curScore) / math.Max(math.Abs(curScore), 1e-9)
		if rel >= 0 || math.Exp(rel/temp) > rng.float() {
			cur, curScore = cand, sc
		}
		temp *= 0.7
	}
	s.prof.Trajectory = append(s.prof.Trajectory, TrajPoint{
		Stage:  "anneal",
		Probes: s.prof.Probes,
		Best:   best.String(),
		Score:  bestScore,
	})
	return best, bestScore, nil
}

// mutate perturbs one knob of the configuration.
func mutate(a netadv.Adversary, rng *rng) netadv.Adversary {
	kinds := DefaultSpace().Kinds
	switch rng.intn(5) {
	case 0: // severity up 25% (clamped)
		a.Severity = clampSev(effectiveSev(a) * 1.25)
	case 1: // severity down 25% (clamped)
		a.Severity = clampSev(effectiveSev(a) / 1.25)
	case 2: // onset ±200 ms (clamped at 0)
		d := 200 * time.Millisecond
		if rng.intn(2) == 0 {
			d = -d
		}
		a.Onset += d
		if a.Onset < 0 {
			a.Onset = 0
		}
	case 3: // toggle adaptivity
		a.Adaptive = !a.Adaptive
	default: // switch preset
		a.Kind = kinds[rng.intn(len(kinds))]
	}
	return a
}

func clampSev(s float64) float64 {
	return math.Min(3, math.Max(0.25, s))
}

// effectiveSev reads the effective severity (0 means the preset default 1).
func effectiveSev(a netadv.Adversary) float64 {
	if a.Severity > 0 {
		return a.Severity
	}
	return 1
}

// Text renders the profile deterministically (no wall-clock content).
func (p *Profile) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "worst-case %s/%s n=%d f=%d seed=%d\n", p.Protocol, p.Objective, p.N, p.F, p.Seed)
	if v := p.Violation; v != nil {
		fmt.Fprintf(&b, "  VIOLATION %s seed=%d: %s\n", v.Adversary, v.Seed, v.Err)
	}
	fmt.Fprintf(&b, "  best    %-28s score=%.3f\n", p.Best, p.BestScore)
	fmt.Fprintf(&b, "  clean   %-28s score=%.3f\n", "none", p.CleanScore)
	fmt.Fprintf(&b, "  preset  %-28s score=%.3f\n", p.PresetBest, p.PresetBestScore)
	fmt.Fprintf(&b, "  probes  %d\n", p.Probes)
	fmt.Fprintf(&b, "  trace   %d events, %d bytes\n", p.TraceEvents, len(p.Trace))
	for _, t := range p.Trajectory {
		fmt.Fprintf(&b, "  %-8s probes=%-5d best=%-28s score=%.3f\n", t.Stage, t.Probes, t.Best, t.Score)
	}
	return b.String()
}

// annealSalt decorrelates the annealing stream from probe seeds.
const annealSalt = 0xad5_ea4c_0001

// rng is a splitmix64 stream for the annealing loop's draws.
type rng struct{ z uint64 }

func newRng(seed int64, salt uint64) *rng { return &rng{z: uint64(seed) ^ salt} }

func (r *rng) next() uint64 {
	r.z += 0x9e3779b97f4a7c15
	return dist.Mix64(r.z)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
