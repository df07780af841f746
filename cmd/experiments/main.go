// Command experiments regenerates the paper's evaluation artefacts: every
// table (I–III) and figure (4–7) plus the §VI-E validity analysis and the
// design ablations, printing the same rows/series the paper reports.
//
// Usage:
//
//	experiments [-scale quick|paper] [-seed N] [-workers K] [-run T1,T2]
//	            [-backend sim|live|tcp] [-sessions=false] [-sim-workers K]
//	            [-service-rounds N] [-service-rate R] [-service-window W]
//	            [-service-queue Q] [-service-duration D] [-service-arrivals poisson|bursty]
//	            [-trace out.json] [-metrics out|-] [-pprof addr]
//	            [-worstcase-objective latency|spread|events|bytes]
//	            [-worstcase-replay] [-worstcase-trace prefix]
//	            [table1 table2 table3 fig4 fig5 fig6a fig6b fig6c fig7
//	             validity tail matrix adversary backends sessions service
//	             trace scale ablations worstcase | all]
//
// Targets are selected positionally or with -run (comma-separated); the
// two compose. Quick scale (default) runs reduced node counts and finishes
// in well under a minute; paper scale uses the paper's axes (n up to 169)
// and takes 1–2 minutes per figure on two cores.
//
// -workers, -sessions, -backend and -sim-workers each set one field of the
// one bench.Engine every target runs its trials on. Trials fan out across
// the engine's worker pool (GOMAXPROCS workers unless -workers is set);
// results — including the adversary sweep's adversarial schedules — are
// identical at any worker count.
//
// -backend retargets every RunSpec-driven workload onto an execution
// backend: the discrete-event simulator (default), an in-process goroutine
// cluster (live), or a loopback TCP cluster (tcp). Live backends measure
// wall-clock time, so their latency columns are real, non-deterministic
// durations. The backends target cross-validates protocol outputs across
// backends regardless of the flag.
//
// -sim-workers routes every simulator run of the engine, the trace target's
// trial and the worstcase target's probes through the parallel window
// executor with that many shard workers (0, the default, keeps the
// sequential loop). Parallel runs are deterministic across reruns and
// worker counts but tie-break differently from the sequential loop, so
// they agree with it statistically (δ-window), not byte for byte. The
// scale target measures the n=1000+ curve, sequential versus 8 workers,
// regardless of the flag.
//
// Backends run trials through persistent sessions by default: each engine
// worker keeps one substrate per cell (the tcp backend's listeners, the
// live backend's hub, the simulator's event-queue storage) alive across
// that cell's trials. -sessions=false forces per-trial setup; results are
// identical either way. The sessions target smoke-runs a 3-trial tcp cell
// through a session.
//
// The service target runs the continuous-service oracle mode: an open-loop
// arrival process of agreement rounds (-service-rate rounds/s,
// -service-arrivals poisson or bursty) over one persistent substrate, a
// bounded window of concurrent in-flight rounds (-service-window) with a
// bounded waiting queue (-service-queue; overflow is shed), fanning decided
// rounds out to a modeled million-client subscriber population. On the sim
// backend the report is deterministic (byte-identical across reruns and
// worker counts); on live/tcp it is a real wall-clock soak, optionally
// capped by -service-duration.
//
// Observability: -trace attaches a recorder to the instrumented targets
// (service, trace) and writes everything captured as Chrome trace-event
// JSON — load it in Perfetto or chrome://tracing. Protocol phases land on
// per-node tracks, the service's round lifecycle on a "service" track.
// -metrics writes the run's metrics-registry snapshot ("-" for text on
// stdout, a *.json path for JSON, any other path for text). The trace
// target runs one instrumented simulator trial; its trace bytes are
// identical across reruns and -sim-workers counts. -pprof serves
// net/http/pprof on the given address for profiling live runs.
//
// The worstcase target searches the adversary space (kind × severity ×
// onset × adaptivity) for each protocol's empirical worst case on the
// simulator — successive halving plus simulated annealing, every probe
// seeded from -seed — and prints the resulting profiles: the winning
// configuration, its score against clean and the best fixed preset, and
// the search trajectory. The output is byte-identical across reruns and
// -sim-workers counts (scripts/ci.sh gates exactly that).
// -worstcase-objective picks the maximised damage metric;
// -worstcase-trace PREFIX writes each winner's evidence trace to
// PREFIX-<protocol>.json; -worstcase-replay validates each winner on the
// loopback-tcp backend (deadline-bounded, wall-clock, non-deterministic —
// the replay lines print only under this flag).
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	// Serve profiling endpoints on the -pprof address.
	_ "net/http/pprof"

	// Register the live execution backends (live, tcp) with bench.
	_ "delphi/internal/backend"

	"delphi/internal/advsearch"
	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/dist"
	"delphi/internal/feeds"
	"delphi/internal/obs"
	"delphi/internal/sim"
)

// options is one parsed command line: the engine every target runs its
// trials on, the experiment sizing, the per-target knobs, and what run
// does around the targets.
type options struct {
	engine *bench.Engine
	scale  bench.Scale
	seed   int64
	// service carries the service target's knobs.
	service struct {
		rounds, window, queue int
		rate                  float64
		duration              time.Duration
		arrivals              string
	}
	// worst carries the worstcase target's knobs.
	worst struct {
		objective, trace string
		replay           bool
	}
	// rec is the run's shared recorder, created when -trace or -metrics
	// asks for one; the instrumented targets (service, trace) attach it.
	// Nil keeps every hook a free no-op.
	rec *obs.Recorder

	targets                           []string
	tracePath, metricsPath, pprofAddr string
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	if o.pprofAddr != "" {
		go func() {
			fmt.Fprintln(os.Stderr, "experiments: pprof:", http.ListenAndServe(o.pprofAddr, nil))
		}()
	}
	for _, name := range o.targets {
		start := time.Now()
		text, err := runTarget(name, o)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println(strings.TrimRight(text, "\n"))
		fmt.Printf("[%s completed in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return writeObs(o.rec, o.tracePath, o.metricsPath)
}

// parseArgs parses a command line into the options its targets run with.
func parseArgs(args []string) (*options, error) {
	o := &options{engine: &bench.Engine{}}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	scaleFlag := fs.String("scale", "quick", "experiment scale: quick, medium, or paper")
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.IntVar(&o.engine.Workers, "workers", 0, "trial worker pool size (0 = GOMAXPROCS)")
	runFlag := fs.String("run", "", "comma-separated targets to run (adds to positional targets)")
	backendFlag := fs.String("backend", "sim", "execution backend for the workloads: sim, live, or tcp")
	sessions := fs.Bool("sessions", true, "reuse backend substrates (listeners, hubs, sim storage) across a cell's trials")
	fs.IntVar(&o.engine.SimWorkers, "sim-workers", 0, "parallel window executor shard workers for sim runs (0 = sequential)")
	fs.IntVar(&o.service.rounds, "service-rounds", 200, "service target: arrivals to generate")
	fs.Float64Var(&o.service.rate, "service-rate", 100, "service target: arrival rate, rounds per second")
	fs.IntVar(&o.service.window, "service-window", 4, "service target: max concurrent in-flight rounds")
	fs.IntVar(&o.service.queue, "service-queue", 16, "service target: waiting-room bound; overflow is shed")
	fs.DurationVar(&o.service.duration, "service-duration", 0, "service target: wall-clock cap on a live run (0 = none)")
	fs.StringVar(&o.service.arrivals, "service-arrivals", "poisson", "service target: interarrival law, poisson or bursty")
	fs.StringVar(&o.worst.objective, "worstcase-objective", "latency", "worstcase target: maximised metric, latency, spread, events, or bytes")
	fs.BoolVar(&o.worst.replay, "worstcase-replay", false, "worstcase target: validate each winner on the loopback-tcp backend (wall-clock)")
	fs.StringVar(&o.worst.trace, "worstcase-trace", "", "worstcase target: write each winner's evidence trace to PREFIX-<protocol>.json")
	fs.StringVar(&o.tracePath, "trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) of the instrumented targets")
	fs.StringVar(&o.metricsPath, "metrics", "", "write the metrics snapshot: '-' for text on stdout, *.json for JSON, else text to the path")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.engine.DisableSessions = !*sessions
	o.engine.Backend = bench.BackendKind(*backendFlag)
	if !bench.BackendRegistered(o.engine.Backend) {
		return nil, fmt.Errorf("unknown backend %q (want one of %v)", *backendFlag, bench.RegisteredBackends())
	}
	switch *scaleFlag {
	case "quick":
		o.scale = bench.Quick
	case "medium":
		o.scale = bench.Medium
	case "paper":
		o.scale = bench.Paper
	default:
		return nil, fmt.Errorf("unknown scale %q", *scaleFlag)
	}
	if o.tracePath != "" || o.metricsPath != "" {
		o.rec = obs.New()
	}

	o.targets = fs.Args()
	for _, t := range strings.Split(*runFlag, ",") {
		if t = strings.TrimSpace(t); t != "" {
			o.targets = append(o.targets, t)
		}
	}
	if len(o.targets) == 0 || (len(o.targets) == 1 && o.targets[0] == "all") {
		o.targets = nil
		for _, t := range targetTable() {
			if t.name != "worstcase" {
				o.targets = append(o.targets, t.name)
			}
		}
	}
	return o, nil
}

// target is one runnable experiment.
type target struct {
	name string
	run  func(*options) (string, error)
}

// targetTable lists every target in the order `all` runs them; `all`
// leaves out worstcase, the adversary-space search.
func targetTable() []target {
	fit := textOf(func(r *bench.FitReport) string { return r.Text })
	tbl := textOf(func(t *bench.Table) string { return t.Text })
	fig := textOf(func(f *bench.Figure) string { return f.Text })
	return []target{
		{"fig4", func(o *options) (string, error) { return fit(bench.Fig4(o.seed)) }},
		{"fig5", func(o *options) (string, error) { return fit(bench.Fig5(o.seed)) }},
		{"table1", func(o *options) (string, error) { return tbl(o.engine.Table1(o.scale, o.seed)) }},
		{"table2", func(o *options) (string, error) { return tbl(o.engine.Table2(o.scale, o.seed)) }},
		{"table3", func(o *options) (string, error) { return tbl(bench.Table3(o.scale, o.seed)) }},
		{"fig6a", func(o *options) (string, error) { return fig(o.engine.Fig6a(o.scale, o.seed)) }},
		{"fig6b", func(o *options) (string, error) { return fig(o.engine.Fig6b(o.scale, o.seed)) }},
		{"fig6c", func(o *options) (string, error) { return fig(o.engine.Fig6c(o.scale, o.seed)) }},
		{"fig7", func(o *options) (string, error) {
			aws, cps, err := o.engine.Fig7(o.scale, o.seed)
			if err != nil {
				return "", err
			}
			return aws.Text + "\n" + cps.Text, nil
		}},
		{"validity", func(o *options) (string, error) {
			reps, err := o.engine.Validity(o.scale, o.seed)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			b.WriteString("validity (§VI-E) — distance from honest mean\n")
			for _, r := range reps {
				b.WriteString(r.Text + "\n")
			}
			return b.String(), nil
		}},
		{"tail", func(o *options) (string, error) {
			return textOf(func(r *bench.TailReport) string { return r.Text })(o.engine.LatencyTail(o.scale, o.seed))
		}},
		{"matrix", runMatrix},
		{"adversary", func(o *options) (string, error) {
			return textOf(func(r *bench.AdversaryReport) string { return r.Text })(o.engine.AdversarySweep(o.scale, o.seed))
		}},
		{"backends", runBackends},
		{"sessions", runSessions},
		{"service", runService},
		{"trace", runTrace},
		{"scale", func(o *options) (string, error) {
			return textOf(func(r *bench.ScaleReport) string { return r.Text })(bench.ScaleSweep(o.scale, 8, o.seed))
		}},
		{"ablations", runAblations},
		{"worstcase", runWorstcase},
	}
}

// textOf lifts a report's text accessor over the (report, error) pair an
// experiment returns.
func textOf[T any](text func(T) string) func(T, error) (string, error) {
	return func(v T, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return text(v), nil
	}
}

// runTarget runs the named target with o.
func runTarget(name string, o *options) (string, error) {
	var names []string
	for _, t := range targetTable() {
		if t.name == name {
			return t.run(o)
		}
		names = append(names, t.name)
	}
	return "", fmt.Errorf("unknown target (want %s, or all)", strings.Join(names, ", "))
}

// writeObs renders what the run's recorder captured: the trace as Chrome
// trace-event JSON, the metrics snapshot as text or JSON by path.
func writeObs(rec *obs.Recorder, tracePath, metricsPath string) error {
	if rec == nil {
		return nil
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := rec.WriteTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("write trace %s: %w", tracePath, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("[trace: %d events -> %s]\n", rec.EventCount(), tracePath)
	}
	if metricsPath != "" {
		snap := rec.Snapshot()
		if metricsPath == "-" {
			return snap.WriteText(os.Stdout)
		}
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		write := snap.WriteText
		if strings.HasSuffix(metricsPath, ".json") {
			write = snap.WriteJSON
		}
		if err := write(f); err != nil {
			f.Close()
			return fmt.Errorf("write metrics %s: %w", metricsPath, err)
		}
		return f.Close()
	}
	return nil
}

// runBackends demonstrates the execution-backend axis: first the
// cross-backend validator (identical RunSpecs on the simulator and a live
// goroutine cluster must produce outputs in the same agreement window; the
// tcp backend joins above quick scale), then one Delphi matrix whose cells
// cross input shapes with backends. Simulator cells report virtual latency;
// live cells report real wall time and are excluded from byte-identity
// expectations.
func runBackends(o *options) (string, error) {
	kinds := []bench.BackendKind{bench.BackendSim, bench.BackendLive}
	if o.scale != bench.Quick {
		kinds = append(kinds, bench.BackendTCP)
	}
	rep, err := o.engine.ValidateCrossBackend(kinds, o.scale, o.seed)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(rep.Text)
	if !rep.OK() {
		return b.String(), fmt.Errorf("cross-backend validation failed:\n%s", rep.Text)
	}

	trials := 2
	if o.scale != bench.Quick {
		trials = 4
	}
	m := bench.Matrix{
		Base: bench.Scenario{
			Protocol: bench.ProtoDelphi,
			Params:   core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2},
			Env:      sim.AWS(),
			N:        8,
			Center:   41000,
			Delta:    20,
			Trials:   trials,
		},
		Shapes:   []bench.InputShape{bench.ShapePinned, bench.ShapeClustered},
		Backends: kinds,
	}
	cells, err := o.engine.RunMatrix(m, o.seed)
	if err != nil {
		return "", err
	}
	b.WriteString("\nbackend matrix — Delphi, mean over trials\n")
	b.WriteString("  (lat: virtual time on sim cells, wall time to decision on live cells)\n")
	fmt.Fprintf(&b, "  %-40s %10s %10s %10s %10s\n", "cell", "lat(ms)", "wall(ms)", "MB", "spread")
	for _, c := range cells {
		wall := "-"
		if c.Agg.WallMS.N() > 0 {
			wall = fmt.Sprintf("%.1f", c.Agg.WallMS.Mean())
		}
		fmt.Fprintf(&b, "  %-40s %10.0f %10s %10.2f %10.3g\n",
			c.Scenario.Name, c.Agg.LatencyMS.Mean(), wall, c.Agg.MB.Mean(), c.Agg.Spread.Mean())
	}
	return b.String(), nil
}

// runSessions smoke-runs the persistent-session path end to end: one
// 3-trial (quick) Delphi cell on the tcp backend through the engine, whose
// workers keep the cell's listeners and connections bound across trials.
// Per-trial agreement must hold on every trial; the printed wall times are
// real and non-deterministic.
func runSessions(o *options) (string, error) {
	trials := 3
	n := 8
	if o.scale != bench.Quick {
		trials, n = 10, 16
	}
	spec := bench.RunSpec{
		Protocol: bench.ProtoDelphi,
		N:        n,
		F:        (n - 1) / 3,
		Env:      sim.AWS(),
		Seed:     o.seed,
		Inputs:   bench.OracleInputs(n, 41000, 20, o.seed),
		Delphi:   core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2},
		Backend:  bench.BackendTCP,
	}
	stats, err := o.engine.RunTrials(spec, trials)
	if err != nil {
		return "", err
	}
	agg := bench.NewAggregate(false)
	for _, st := range stats {
		agg.Observe(st)
	}
	mode := "one persistent cluster per worker"
	if o.engine.DisableSessions {
		mode = "per-trial setup (sessions disabled)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "tcp session smoke — %d trials, n=%d, %s\n", trials, n, mode)
	fmt.Fprintf(&b, "  wall mean %.1f ms   spread max %.3g (ε=%g)   %.2f MB/trial mean\n",
		agg.WallMS.Mean(), agg.Spread.Max(), spec.Delphi.Eps, agg.MB.Mean())
	if agg.Spread.Max() > spec.Delphi.Eps {
		return b.String(), fmt.Errorf("session smoke: agreement violated (spread %g > ε=%g)", agg.Spread.Max(), spec.Delphi.Eps)
	}
	return b.String(), nil
}

// runService drives the continuous-service oracle mode on whatever backend
// -backend selected (the sim model is deterministic; live/tcp are wall-clock
// soaks) and renders the service report: round accounting, backpressure
// high-water marks, latency split, throughput, and subscriber staleness.
func runService(o *options) (string, error) {
	n := 8
	if o.scale != bench.Quick {
		n = 16
	}
	cfg := bench.ServiceConfig{
		Scenario: bench.Scenario{
			Name:     "service",
			Protocol: bench.ProtoDelphi,
			N:        n,
			Env:      sim.AWS(),
			Params:   core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2},
			Center:   41000,
			Delta:    20,
		},
		Rounds:   o.service.rounds,
		Rate:     o.service.rate,
		Window:   o.service.window,
		Queue:    o.service.queue,
		Duration: o.service.duration,
		Subscribers: feeds.Population{
			Size: 1_000_000, Seed: o.seed, Base: 5 * time.Millisecond,
			Jitter: dist.Lognormal{Mu: 2, Sigma: 0.5},
		},
		Representatives: 8,
		Obs:             o.rec,
	}
	switch o.service.arrivals {
	case "", "poisson":
	case "bursty":
		cfg.Arrivals = bench.ArrivalBursty
	default:
		return "", fmt.Errorf("unknown arrival law %q (want poisson or bursty)", o.service.arrivals)
	}
	rep, err := o.engine.RunService(cfg, o.seed)
	if err != nil {
		return "", err
	}
	return rep.Text(), nil
}

// runTrace runs one instrumented simulator trial: protocol phase spans land
// on per-node virtual-clock tracks, driver flushes and sim internals on
// their own, and the metrics registry collects the counters. It prints the
// metrics snapshot (deterministic on the simulator); -trace captures the
// spans. Without -trace or -metrics it still runs, on its own recorder, so
// the instrumented path is exercised either way. With -sim-workers K the
// trial goes through the parallel executor; the trace bytes are identical
// at any K — scripts/ci.sh gates exactly that.
func runTrace(o *options) (string, error) {
	rec := o.rec
	if rec == nil {
		rec = obs.New()
	}
	n := 8
	if o.scale != bench.Quick {
		n = 16
	}
	spec := bench.RunSpec{
		Protocol:   bench.ProtoDelphi,
		N:          n,
		F:          (n - 1) / 3,
		Env:        sim.AWS(),
		Seed:       o.seed,
		Inputs:     bench.OracleInputs(n, 41000, 20, o.seed),
		Delphi:     core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2},
		SimWorkers: o.engine.SimWorkers,
		Obs:        rec,
	}
	st, err := bench.Run(spec)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace — Delphi n=%d on the simulator: %d trace events\n", n, rec.EventCount())
	b.WriteString("metrics:\n")
	for _, m := range st.Metrics {
		line := &strings.Builder{}
		_ = obs.Metrics{m}.WriteText(line)
		b.WriteString("  " + line.String())
	}
	return b.String(), nil
}

// runMatrix demonstrates the scenario matrix: Delphi across both testbeds,
// two system sizes, the three input shapes, and the fault axes, as one
// engine batch. Each cell is a struct literal away from a new workload.
func runMatrix(o *options) (string, error) {
	ns := []int{16}
	trials := 2
	if o.scale != bench.Quick {
		ns = []int{16, 40}
		trials = 4
	}
	m := bench.Matrix{
		Base: bench.Scenario{
			Protocol: bench.ProtoDelphi,
			// Table I's parameterisation: Δ=256$ keeps every cell subsecond.
			Params:  core.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2},
			Center:  41000,
			Delta:   20,
			ByzKind: bench.ByzSpam,
			Trials:  trials,
		},
		Envs:      []sim.Environment{sim.AWS(), sim.CPS()},
		Ns:        ns,
		Shapes:    []bench.InputShape{bench.ShapePinned, bench.ShapeSkewed, bench.ShapeClustered},
		ByzCounts: []int{0, 1},
	}
	cells, err := o.engine.RunMatrix(m, o.seed)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("scenario matrix — Delphi, mean over trials\n")
	fmt.Fprintf(&b, "  %-36s %10s %10s %10s\n", "cell", "lat(ms)", "MB", "spread")
	for _, c := range cells {
		fmt.Fprintf(&b, "  %-36s %10.0f %10.2f %10.3g\n",
			c.Scenario.Name, c.Agg.LatencyMS.Mean(), c.Agg.MB.Mean(), c.Agg.Spread.Mean())
	}
	return b.String(), nil
}

// runWorstcase searches the adversary space for each protocol's empirical
// worst case and prints the profiles. Everything printed here is a pure
// function of (scale, seed, objective) on the simulator; the tcp replay
// lines are real wall-clock measurements and print only under
// -worstcase-replay so the deterministic output stays gateable.
func runWorstcase(o *options) (string, error) {
	protos := []bench.Protocol{bench.ProtoDelphi, bench.ProtoFIN}
	n, rungs, anneal := 8, 3, 6
	if o.scale != bench.Quick {
		protos = append(protos, bench.ProtoAbraham)
		n, anneal = 16, 12
	}
	var b strings.Builder
	for _, proto := range protos {
		p, err := advsearch.Search(advsearch.Config{
			Protocol:    proto,
			N:           n,
			Seed:        o.seed,
			Objective:   advsearch.Objective(o.worst.objective),
			Rungs:       rungs,
			AnnealSteps: anneal,
			SimWorkers:  o.engine.SimWorkers,
		})
		if err != nil {
			return "", err
		}
		b.WriteString(p.Text())
		if o.worst.trace != "" {
			path := fmt.Sprintf("%s-%s.json", o.worst.trace, proto)
			if err := os.WriteFile(path, p.Trace, 0o644); err != nil {
				return "", fmt.Errorf("write evidence trace: %w", err)
			}
			fmt.Fprintf(&b, "  [evidence trace: %d events -> %s]\n", p.TraceEvents, path)
		}
		if o.worst.replay {
			res, err := p.ReplayTCP(advsearch.ReplayConfig{})
			if err != nil {
				return "", fmt.Errorf("tcp replay: %w", err)
			}
			fmt.Fprintf(&b, "  replay  clean=%s worst=%s degraded=%v (attempts %d, scored %d, timed out %d)\n",
				res.CleanWall.Round(time.Millisecond), res.WorstWall.Round(time.Millisecond),
				res.Degraded, res.Attempts, res.Scored, res.TimedOut)
		}
	}
	return b.String(), nil
}

func runAblations(o *options) (string, error) {
	var b strings.Builder
	single, multi, err := o.engine.AblationSingleLevel(16, o.seed)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "ablation: single-level strawman (ρ0=Δ) vs multi-level, n=16 δ=10$\n")
	fmt.Fprintf(&b, "  single-level |out−mean|=%.1f$   multi-level |out−mean|=%.2f$\n",
		single.MeanAbsErr, multi.MeanAbsErr)

	rows, err := o.engine.AblationEps(16, o.seed)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "ablation: ε sweep (n=16, δ=20$)\n")
	fmt.Fprintf(&b, "  %-8s %8s %10s %12s %8s\n", "eps", "rounds", "spread", "latency(ms)", "MB")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s %8d %10.4g %12.0f %8.2f\n", r.Name, r.Rounds, r.Spread, r.LatencyMS, r.MB)
	}

	comp, plain, err := o.engine.AblationCompression(16, o.seed)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "ablation: §II-C wire compression (n=16, δ=20$)\n")
	fmt.Fprintf(&b, "  compressed: %.2f MB   plain: %.2f MB   saving: %.1fx\n",
		float64(comp.TotalBytes)/1e6, float64(plain.TotalBytes)/1e6,
		float64(plain.TotalBytes)/float64(comp.TotalBytes))

	slow, fast, err := o.engine.AblationCoinCost(16, o.seed)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "ablation: FIN coin cost on CPS hardware (n=16)\n")
	fmt.Fprintf(&b, "  pairing-class coin: %s   hash-class coin: %s\n",
		slow.Latency.Round(time.Millisecond), fast.Latency.Round(time.Millisecond))

	clean, crashed, byzantine, err := o.engine.AblationFaults(16, o.seed)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "ablation: fault load (n=16, δ=20$, f=5)\n")
	fmt.Fprintf(&b, "  clean: %s %.2fMB   f crashes: %s %.2fMB   f byz spammers: %s %.2fMB\n",
		clean.Latency.Round(time.Millisecond), float64(clean.TotalBytes)/1e6,
		crashed.Latency.Round(time.Millisecond), float64(crashed.TotalBytes)/1e6,
		byzantine.Latency.Round(time.Millisecond), float64(byzantine.TotalBytes)/1e6)

	advRows, err := o.engine.AblationAdversary(16, o.seed)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "ablation: network adversary (Delphi, n=16, δ=20$)\n")
	fmt.Fprintf(&b, "  %-14s %12s %8s %10s\n", "adversary", "latency(ms)", "MB", "spread")
	for _, r := range advRows {
		fmt.Fprintf(&b, "  %-14s %12.0f %8.2f %10.3g\n", r.Name, r.LatencyMS, r.MB, r.Spread)
	}
	return b.String(), nil
}
