package main

import (
	"fmt"
	"strings"
	"time"

	_ "delphi/internal/backend" // registers the live and tcp backends
	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/feeds"
	"delphi/internal/sim"
)

// Every workload is a closed loop driven by one generator goroutine: the
// next op starts when the previous one returns (svc-tcp keeps two rounds in
// flight, i.e. two clients). The program under test only ever sees the
// RunSpecs and ServiceConfigs generated here from the seed.

// sizing is a workload's scale. The full sizes are the benchmark; the smoke
// sizes run the same code paths in well under a second each.
type sizing struct {
	n, f int
	// specs is how many distinct RunSpecs the ops cycle through. The exact
	// metrics (virtual latency, wire bytes, events) are taken over one full
	// cycle, so they do not depend on how many ops the host fits into the
	// window; every later cycle must reproduce the first bit for bit on the
	// simulator.
	specs int
	// chunk is tcp-fin's trials per RunBatch (one session each) and
	// svc-tcp's rounds per RunService; warm is the set-up's warm-up count.
	chunk, warm int
	// maxOps caps the measured window by count instead of by time (smoke).
	maxOps int
}

// measured is what a workload's window produced.
type measured struct {
	opMS      []float64 // one entry per completed, correct op
	attempted int
	failed    int
	failures  []string
	// busy is the time ops_per_s divides by: the window's outside wall,
	// except on svc-tcp, whose capacity is decided rounds over the time the
	// service was open (first arrival to last decision of each chunk).
	busy time.Duration
	msgs int64 // Σ RunStats.TotalMsgs over completed ops
	// gauge reads the host's speed between ops; its time is not the
	// workload's and is taken out of busy and of the window's CPU.
	gauge hostGauge
	// cycle holds the first full cycle's exact per-spec quantities.
	virtualMS []float64
	wireBytes []float64

	// tcp-fin: Σ RunStats.Wall and the RunBatch walls they were part of.
	trialWall, batchWall time.Duration
	timeouts             int
	// svc-tcp: Σ ServiceMS and the reports' occupancy accounting.
	serviceMS   float64
	maxInflight int
	shed, lost  int
	delivered   uint64
	subDropped  uint64
	staleFrames uint64
	staleMeanMS []float64 // per chunk: mean staleness − mean latency
}

func (m *measured) fail(op int, seed int64, err error) {
	m.failed++
	msg := fmt.Sprintf("op %d seed %d: %v", op, seed, err)
	if len(m.failures) < 20 {
		m.failures = append(m.failures, msg)
	}
}

// ops is the number of completed, correct ops.
func (m *measured) ops() int { return len(m.opMS) }

// workload is one of the five benchmark workloads.
type workload interface {
	// setup generates the specs from the seed and runs the cold warm-up;
	// its duration is setup_s. It is called several times per run.
	setup(seed int64) error
	// run drives ops until the deadline (or size.maxOps) and fills m.
	// minCycle keeps it going past the deadline until one full cycle of
	// specs has run, which the exact metrics need.
	run(deadline time.Time, minCycle bool, m *measured)
	// audit fills whatever exact metric the window could not give.
	audit(m *measured) error
	// traced returns a copy of the set-up workload whose ops run through
	// tr's instrumented rebuild of the same run.
	traced(tr *tracer) workload
}

// runner is how a workload executes one simulator spec: bench.Run, or the
// tracer's instrumented rebuild of it.
type runner func(bench.RunSpec) (*bench.RunStats, error)

func newWorkload(name string, smoke bool) (workload, error) {
	pick := func(full, small sizing) sizing {
		if smoke {
			return small
		}
		return full
	}
	scaleParams := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 8, Eps: 2}
	switch name {
	case "sim-delphi":
		return &simWorkload{
			size:  pick(sizing{n: 40, f: 13, specs: 8}, sizing{n: 8, f: 2, specs: 2, maxOps: 4}),
			proto: bench.ProtoDelphi, params: bench.OracleDefaultParams(), delta: 20, exec: bench.Run,
		}, nil
	case "sim-scale-seq":
		return &simWorkload{
			size:  pick(sizing{n: 1000, f: 199, specs: 4}, sizing{n: 8, f: 1, specs: 2, maxOps: 4}),
			proto: bench.ProtoDolev, params: scaleParams, delta: 8, exec: bench.Run,
		}, nil
	case "sim-scale-par":
		return &simWorkload{
			size:  pick(sizing{n: 1000, f: 199, specs: 4}, sizing{n: 8, f: 1, specs: 2, maxOps: 4}),
			proto: bench.ProtoDolev, params: scaleParams, delta: 8, workers: 2, exec: bench.Run,
		}, nil
	case "tcp-fin":
		return &finWorkload{
			size: pick(sizing{n: 16, f: 5, specs: 32, chunk: 64, warm: 20}, sizing{n: 4, f: 1, specs: 2, chunk: 2, warm: 1, maxOps: 4}),
			kind: bench.BackendTCP,
		}, nil
	case "svc-tcp":
		return &svcWorkload{
			size: pick(sizing{n: 8, f: 2, specs: 16, chunk: 50, warm: 20}, sizing{n: 4, f: 1, specs: 2, chunk: 4, warm: 2, maxOps: 4}),
			kind: bench.BackendTCP,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// done is the shared stopping rule.
func (s sizing) done(ops int, deadline time.Time, minCycle bool) bool {
	if s.maxOps > 0 {
		return ops >= s.maxOps
	}
	if minCycle && ops < s.specs {
		return false
	}
	return !time.Now().Before(deadline)
}

// simWorkload runs one protocol on the discrete-event simulator, one
// bench.Run per op.
type simWorkload struct {
	size    sizing
	proto   bench.Protocol
	params  core.Params
	delta   float64
	workers int
	exec    runner
	specs   []bench.RunSpec
}

func (w *simWorkload) setup(seed int64) error {
	w.specs = make([]bench.RunSpec, w.size.specs)
	for i := range w.specs {
		s := bench.TrialSeed(seed, i)
		w.specs[i] = bench.RunSpec{
			Protocol:   w.proto,
			N:          w.size.n,
			F:          w.size.f,
			Env:        sim.AWS(),
			Seed:       s,
			Inputs:     bench.OracleInputs(w.size.n, 41000, w.delta, s),
			Delphi:     w.params,
			SimWorkers: w.workers,
		}
	}
	st, err := w.exec(w.specs[0])
	if err != nil {
		return err
	}
	return checkRun(w.specs[0], st)
}

func (w *simWorkload) run(deadline time.Time, minCycle bool, m *measured) {
	first := make([]*simFingerprint, len(w.specs))
	start := time.Now()
	for i := 0; !w.size.done(i, deadline, minCycle); i++ {
		k := i % len(w.specs)
		spec := w.specs[k]
		m.attempted++
		t := time.Now()
		st, err := w.exec(spec)
		d := time.Since(t)
		if err == nil {
			err = checkRun(spec, st)
		}
		if err != nil {
			m.fail(i, spec.Seed, err)
			continue
		}
		fp := fingerprint(st)
		switch {
		case first[k] == nil:
			first[k] = &fp
			m.virtualMS = append(m.virtualMS, ms(st.Latency))
			m.wireBytes = append(m.wireBytes, float64(st.TotalBytes))
		case *first[k] != fp:
			m.fail(i, spec.Seed, fmt.Errorf("repeated spec not bit-equal: %+v then %+v", *first[k], fp))
			continue
		}
		m.opMS = append(m.opMS, ms(d))
		m.msgs += int64(st.TotalMsgs)
		m.gauge.keepUp(start)
	}
	m.busy = time.Since(start) - m.gauge.spent
}

func (w *simWorkload) audit(*measured) error { return nil }

func (w *simWorkload) traced(tr *tracer) workload {
	c := *w
	c.exec = tr.simOp
	return &c
}

// finWorkload runs FIN trials over persistent loopback-tcp sessions, one
// Engine.RunBatch (one session) per chunk, one trial at a time.
type finWorkload struct {
	size  sizing
	kind  bench.BackendKind
	specs []bench.RunSpec
	// simMS is each spec's simulated decision latency, from the run that
	// selected it.
	simMS []float64
}

// setup picks the specs. FIN's cost per trial is set by how many coin
// rounds its binary agreements need — a geometric draw fixed by the spec's
// seed — and roughly half of all seeds finish in the minimum: the median
// trial flips between the one-round and the two-round class from one seed
// to the next (516 ms against 403 ms of simulated latency, the same on the
// wall clock). The workload therefore keeps the candidates of the minimum
// class, found by running each candidate on the simulator, so that every op
// sends the same number of frames and its time measures the code.
func (w *finWorkload) setup(seed int64) error {
	w.specs, w.simMS = w.specs[:0], w.simMS[:0]
	minMsgs := 0
	for i := 0; len(w.specs) < w.size.specs; i++ {
		if i >= 16*w.size.specs {
			return fmt.Errorf("tcp-fin: %d candidates gave only %d minimum-class specs", i, len(w.specs))
		}
		s := bench.TrialSeed(seed, i)
		spec := bench.RunSpec{
			Protocol: bench.ProtoFIN,
			N:        w.size.n,
			F:        w.size.f,
			Env:      sim.AWS(),
			Seed:     s,
			Inputs:   bench.OracleInputs(w.size.n, 41000, 20, s),
			Delphi:   bench.OracleDefaultParams(),
		}
		st, err := bench.Run(spec)
		if err != nil {
			return err
		}
		if minMsgs == 0 || st.TotalMsgs < minMsgs {
			// A smaller class: everything kept so far is of a larger one.
			minMsgs = st.TotalMsgs
			w.specs, w.simMS = w.specs[:0], w.simMS[:0]
		}
		if st.TotalMsgs == minMsgs {
			w.specs = append(w.specs, spec)
			w.simMS = append(w.simMS, ms(st.Latency))
		}
	}
	warm := w.cycle(0, w.size.warm)
	sts, err := (&bench.Engine{Workers: 1}).RunBatch(warm)
	if err != nil {
		return err
	}
	for i, st := range sts {
		if err := checkRun(warm[i], st); err != nil {
			return err
		}
	}
	return nil
}

// cycle returns count specs starting at op index from, wrapping around.
func (w *finWorkload) cycle(from, count int) []bench.RunSpec {
	out := make([]bench.RunSpec, count)
	for i := range out {
		out[i] = w.specs[(from+i)%len(w.specs)]
		out[i].Backend = w.kind
	}
	return out
}

func (w *finWorkload) run(deadline time.Time, minCycle bool, m *measured) {
	eng := &bench.Engine{Workers: 1}
	start := time.Now()
	for done := 0; !w.size.done(done, deadline, minCycle); {
		count := w.size.chunk
		if w.size.maxOps > 0 && count > w.size.maxOps-done {
			count = w.size.maxOps - done
		}
		specs := w.cycle(done, count)
		m.attempted += count
		t := time.Now()
		sts, err := eng.RunBatch(specs)
		m.batchWall += time.Since(t)
		if err != nil {
			// A failed batch discards every result, so all of its ops count;
			// the error names the trial that failed.
			if strings.Contains(err.Error(), "timed out") {
				m.timeouts++
			}
			m.fail(done, specs[0].Seed, err)
			m.failed += count - 1
			done += count
			continue
		}
		for i, st := range sts {
			op := done + i
			if err := checkRun(specs[i], st); err != nil {
				m.fail(op, specs[i].Seed, err)
				continue
			}
			if op < len(w.specs) {
				m.wireBytes = append(m.wireBytes, float64(st.TotalBytes))
			}
			m.opMS = append(m.opMS, ms(st.Wall))
			m.trialWall += st.Wall
			m.msgs += int64(st.TotalMsgs)
		}
		done += count
		m.gauge.keepUp(start)
	}
	m.busy = time.Since(start) - m.gauge.spent
}

func (w *finWorkload) audit(m *measured) error {
	m.virtualMS = w.simMS
	return nil
}

func (w *finWorkload) traced(*tracer) workload {
	c := *w
	c.kind = tracedKind
	return &c
}

// svcWorkload runs the continuous oracle service: Delphi rounds arriving
// far faster than they are served into a window of two, so two rounds are
// always in flight and nothing is shed — a closed loop with two clients.
type svcWorkload struct {
	size sizing
	kind bench.BackendKind
	seed int64
}

const svcRepresentatives = 4

func (w *svcWorkload) scenario() bench.Scenario {
	return bench.Scenario{
		Protocol: bench.ProtoDelphi,
		N:        w.size.n,
		Env:      sim.AWS(),
		Params:   core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2},
		Center:   41000,
		Delta:    48,
		Backend:  w.kind,
	}
}

func (w *svcWorkload) config(rounds int) bench.ServiceConfig {
	return bench.ServiceConfig{
		Scenario:        w.scenario(),
		Rounds:          rounds,
		Rate:            1e5,
		Window:          2,
		Queue:           rounds,
		Subscribers:     feeds.Population{Size: 1_000_000, Seed: 7},
		Representatives: svcRepresentatives,
	}
}

// chunkSeed is the service seed of the window's c-th RunService call; the
// warm-up uses a seed no chunk does.
func (w *svcWorkload) chunkSeed(c int) int64 { return bench.TrialSeed(w.seed, 1+c) }

func (w *svcWorkload) setup(seed int64) error {
	w.seed = seed
	rep, err := bench.NewEngine(1).RunService(w.config(w.size.warm), bench.TrialSeed(seed, 0))
	if err != nil {
		return err
	}
	return checkService(rep, w.size.warm, svcRepresentatives)
}

func (w *svcWorkload) run(deadline time.Time, _ bool, m *measured) {
	eng := bench.NewEngine(1)
	start := time.Now()
	for c, done := 0, 0; !w.size.done(done, deadline, false); c++ {
		rounds := w.size.chunk
		seed := w.chunkSeed(c)
		m.attempted += rounds
		rep, err := eng.RunService(w.config(rounds), seed)
		done += rounds
		if err != nil {
			m.fail(c*rounds, seed, err)
			m.failed += rounds - 1
			continue
		}
		if err := checkService(rep, rounds, svcRepresentatives); err != nil {
			m.fail(c*rounds, seed, err)
			m.failed += rounds - 1
			continue
		}
		m.opMS = append(m.opMS, rep.ServiceMS.Samples...)
		m.busy += rep.Span
		m.serviceMS += rep.ServiceMS.Mean() * float64(rep.ServiceMS.N())
		if rep.MaxInFlight > m.maxInflight {
			m.maxInflight = rep.MaxInFlight
		}
		m.shed += rep.Shed
		m.lost += rep.Failed
		m.delivered += rep.DeliveredUpdates
		m.subDropped += rep.SubDropped
		m.staleFrames += rep.StaleFrames
		m.staleMeanMS = append(m.staleMeanMS, rep.StalenessMS.Mean()-rep.LatencyMS.Mean())
		m.gauge.keepUp(start)
	}
}

// audit re-runs the first chunk's leading round specs alone: a
// ServiceReport carries neither outputs nor traffic, so agreement, validity
// and wire bytes are read off the same specs as single tcp trials, and the
// modelled WAN latency off the simulator.
func (w *svcWorkload) audit(m *measured) error {
	specs := make([]bench.RunSpec, w.size.specs)
	for i := range specs {
		specs[i] = w.scenario().Spec(w.chunkSeed(0), i)
		onSim := specs[i]
		onSim.Backend = bench.BackendSim
		st, err := bench.Run(onSim)
		if err != nil {
			return err
		}
		m.virtualMS = append(m.virtualMS, ms(st.Latency))
	}
	sts, err := (&bench.Engine{Workers: 1}).RunBatch(specs)
	if err != nil {
		return err
	}
	var msgs int
	for i, st := range sts {
		if err := checkRun(specs[i], st); err != nil {
			return fmt.Errorf("audit round %d seed %d: %w", i, specs[i].Seed, err)
		}
		m.wireBytes = append(m.wireBytes, float64(st.TotalBytes))
		msgs += st.TotalMsgs
	}
	// The window's message count is the audit's per-round mean times the
	// rounds served.
	m.msgs = int64(msgs) * int64(m.ops()) / int64(len(sts))
	return nil
}

func (w *svcWorkload) traced(*tracer) workload {
	c := *w
	c.kind = tracedKind
	return &c
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
