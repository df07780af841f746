package bench

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"delphi/internal/dist"
	"delphi/internal/obs"
	"delphi/internal/run"
)

// Engine is the harness' parallel trial runner: it fans batches of RunSpecs
// across a fixed worker pool. Every trial is an independent, deterministic
// function of its spec (the simulator derives all randomness from the
// spec's seed), so results are byte-identical to running the same specs
// sequentially through run.Run — the engine only changes wall-clock, never
// measurements. An Engine is the whole run configuration: every experiment
// entry point that runs trials is a method on it, and the package keeps no
// process-wide settings. The zero value is ready to use.
type Engine struct {
	// Workers bounds the number of concurrent trials; <= 0 means
	// GOMAXPROCS. It is ignored while Obs is set: a recorder runs one
	// trial at a time.
	Workers int
	// DisableSessions forces per-trial backend setup: every trial opens
	// and tears down its own substrate (listeners, connections, simulator
	// storage) even on backends with session support. Sessions never
	// change results; the switch lets a run check exactly that (ci.sh's
	// `-sessions=false -run matrix` gate).
	DisableSessions bool
	// Backend runs every spec (and service config) whose Backend is empty;
	// the zero value is the simulator.
	Backend run.BackendKind
	// SimWorkers is the window executor's worker count for every sim-backed
	// spec whose SimWorkers is zero (see RunSpec.SimWorkers); 0 leaves them
	// at one shard.
	SimWorkers int
	// Obs records every spec whose Obs is nil, and every service run. The
	// trials then run one at a time, so tracks are created in spec order
	// and a sim trace's bytes are the same at any Workers count.
	Obs *obs.Recorder
}

// NewEngine returns an engine with the given worker count (<= 0 for
// GOMAXPROCS).
func NewEngine(workers int) *Engine { return &Engine{Workers: workers} }

func (e *Engine) workers() int {
	if e.Obs != nil {
		return 1
	}
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// TrialError attaches the failing trial's batch index to its error.
type TrialError struct {
	// Index is the spec's position in the batch.
	Index int
	// Err is the underlying Run error.
	Err error
}

// Error implements error.
func (e *TrialError) Error() string { return fmt.Sprintf("trial %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying error.
func (e *TrialError) Unwrap() error { return e.Err }

// RunBatch executes every spec and returns the results in spec order. On
// failure it returns the *TrialError of the lowest-indexed failing spec —
// the same error a sequential loop would hit first, independent of worker
// count or completion order.
//
// Each worker holds one persistent session per backend cell (see
// BackendSession) and reuses it across every trial it runs for that cell,
// so per-trial setup — the tcp backend's listener binds and dials, the
// live backend's hub, the simulator's event-queue storage — is paid once
// per (cell, worker) instead of once per trial. All sessions close when
// the batch returns.
func (e *Engine) RunBatch(specs []run.RunSpec) ([]*run.RunStats, error) {
	out := make([]*run.RunStats, len(specs))
	errs := make([]error, len(specs))
	w := e.workers()
	if w > len(specs) {
		w = len(specs)
	}
	next := make(chan int)
	// minFail tracks the lowest failing index seen so far. A failed batch
	// discards every result, so trials above a known failure are skipped —
	// but trials below it must still run, so the reported error is always
	// the same one a sequential loop would hit first.
	var minFail atomic.Int64
	minFail.Store(int64(len(specs)))
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cache *sessionCache
			if !e.DisableSessions {
				cache = newSessionCache()
				defer cache.close()
			}
			for i := range next {
				if int64(i) > minFail.Load() {
					continue
				}
				out[i], errs[i] = e.runSpec(specs[i], cache)
				if errs[i] != nil {
					for {
						cur := minFail.Load()
						if int64(i) >= cur || minFail.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, &TrialError{Index: i, Err: err}
		}
	}
	return out, nil
}

// DefaultSampleCap bounds a Stream's retained samples: large enough that
// the Fig. 4/5-style EVT fits are statistically indistinguishable from
// full-sample fits, small enough that a paper-scale million-trial sweep
// holds half a megabyte of samples instead of gigabytes.
const DefaultSampleCap = 1 << 16

// Stream accumulates a scalar series with Welford's online algorithm: one
// pass, O(1) state for the moments, with optional retention of raw samples
// (the EVT fits for the Fig. 4/5-style tail analyses need a sample set;
// plain latency/bandwidth summaries do not).
//
// Retention is a fixed-capacity reservoir (Vitter's Algorithm R), not an
// unbounded append: the first SampleCap observations are kept verbatim and
// later ones replace uniformly random slots, so Samples is always a uniform
// random subset of everything observed and memory stays bounded at any
// trial count. The replacement randomness is a deterministic splitmix64
// stream seeded with SampleSeed, so aggregation stays byte-identical across
// reruns (observations are folded in spec order regardless of worker
// count). Min/Max/moments always cover every observation.
type Stream struct {
	// KeepSamples retains observations in Samples when set before the
	// first Add.
	KeepSamples bool
	// SampleCap bounds the reservoir; 0 means DefaultSampleCap.
	SampleCap int
	// SampleSeed seeds the reservoir's replacement stream. The zero value
	// is a fine seed: replacement stays deterministic either way; distinct
	// seeds merely decorrelate the subsampling of parallel streams.
	SampleSeed uint64
	// Samples holds the retained observations when KeepSamples is set. Up
	// to SampleCap observations it is the full series in order; beyond
	// that, a uniform sample of the whole series.
	Samples []float64

	n        int
	mean, m2 float64
	min, max float64
	rng      uint64
}

// cap returns the effective reservoir capacity.
func (s *Stream) cap() int {
	if s.SampleCap > 0 {
		return s.SampleCap
	}
	return DefaultSampleCap
}

// nextRand advances the embedded splitmix64 stream.
func (s *Stream) nextRand() uint64 {
	s.rng += 0x9e3779b97f4a7c15
	return dist.Mix64(s.rng)
}

// Add feeds one observation.
func (s *Stream) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	d := v - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (v - s.mean)
	if s.KeepSamples {
		if c := s.cap(); len(s.Samples) < c {
			s.Samples = append(s.Samples, v)
		} else {
			if s.n == c+1 {
				// First overflow: start the replacement stream at the seed.
				s.rng = s.SampleSeed
			}
			if j := int(s.nextRand() % uint64(s.n)); j < c {
				// Keep with probability cap/n, replacing a uniform victim —
				// Algorithm R. The modulo bias at cap ~2^16 of 2^64 states
				// is far below the fits' statistical noise.
				s.Samples[j] = v
			}
		}
	}
}

// N returns the observation count.
func (s *Stream) N() int { return s.n }

// Mean returns the running mean (NaN before any observation).
func (s *Stream) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Var returns the running sample variance (NaN below two observations).
func (s *Stream) Var() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.m2 / float64(s.n-1)
}

// Min and Max return the observed extremes (NaN before any observation).
func (s *Stream) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observation.
func (s *Stream) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1, linear interpolation) of
// the retained samples; NaN when KeepSamples was off or nothing was
// observed. Beyond SampleCap observations the reservoir makes this an
// estimate over a uniform subsample — deterministic for a given seed, like
// everything else about the stream.
func (s *Stream) Percentile(p float64) float64 {
	if len(s.Samples) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), s.Samples...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := p * float64(len(sorted)-1)
	lo := int(idx)
	frac := idx - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Aggregate is the streaming summary of a trial series: per-metric online
// moments, built incrementally so a million-trial sweep never holds more
// than one RunStats at a time.
type Aggregate struct {
	// Trials is the number of aggregated runs.
	Trials int
	// LatencyMS, MB, Spread, and AbsErr summarise the headline metrics
	// (latency in milliseconds, traffic in megabytes).
	LatencyMS Stream
	MB        Stream
	Spread    Stream
	AbsErr    Stream
	// WallMS summarises real elapsed time per trial, fed only by
	// wall-clock backends (live/tcp): for simulator trials WallMS.N()
	// stays 0 and LatencyMS is virtual time, so the two clocks never mix
	// even in a cross-backend batch. Wall-clock values are measured, not
	// simulated — they vary run to run and carry no byte-identity
	// guarantee.
	WallMS Stream
	// TotalMsgs counts messages across all trials.
	TotalMsgs int
}

// NewAggregate returns an aggregate; keepSamples retains per-trial latency
// samples for tail (EVT) fitting, bounded by the stream's seeded reservoir
// (DefaultSampleCap) so paper-scale trial counts cannot exhaust memory.
func NewAggregate(keepSamples bool) *Aggregate {
	a := &Aggregate{}
	a.LatencyMS.KeepSamples = keepSamples
	return a
}

// Observe folds one trial into the aggregate.
func (a *Aggregate) Observe(st *run.RunStats) {
	a.Trials++
	a.LatencyMS.Add(float64(st.Latency) / float64(time.Millisecond))
	a.MB.Add(float64(st.TotalBytes) / 1e6)
	a.Spread.Add(st.Spread)
	a.AbsErr.Add(st.MeanAbsErr)
	if st.Wall > 0 {
		a.WallMS.Add(float64(st.Wall) / float64(time.Millisecond))
	}
	a.TotalMsgs += st.TotalMsgs
}
