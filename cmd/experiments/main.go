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
//	            [fig4 fig5 table1 table2 table3 fig6a fig6b fig6c fig7
//	             validity tail matrix adversary ablations backends sessions
//	             service trace scale worstcase | all]
//
// Targets are selected positionally or with -run (comma-separated); the
// two compose, and `all` anywhere in the list stands for every target but
// worstcase. Every name is checked before anything runs, and a target named
// twice runs once. Stdout holds only the targets' text; the timing lines go
// to stderr. Quick scale (default) finishes in seconds; paper scale uses the
// paper's axes (n up to 169): on two cores at seed 1, ~80 s for fig6a and
// fig6b together, ~40 s for fig6c and ~10 s for fig7.
//
// The targets up to ablations are the experiments of bench.Experiments.
// They run as one batch of simulations in which a run two experiments
// share, such as fig6a's and fig6b's FIN and Abraham et al. runs, runs
// once. The rest read command-line flags:
//
//   - backends cross-validates every protocol on the simulator and a live
//     goroutine cluster (and loopback tcp at paper scale), then runs a
//     sim|live matrix; sessions smoke-runs a 3-trial tcp cell through one
//     persistent session. Both print real wall times.
//   - service runs the continuous-service oracle mode with the -service-*
//     knobs: deterministic on the simulator, a wall-clock soak on live/tcp.
//   - trace runs one instrumented simulator trial and prints its metrics;
//     -trace writes its Chrome trace-event JSON (Perfetto-loadable), the
//     same bytes at any -sim-workers count.
//   - scale measures the simulator's n=1000+ curve, sequential versus 8
//     workers, in host wall time.
//   - worstcase searches the adversary space for each protocol's empirical
//     worst case (-worstcase-objective), byte-identical across reruns and
//     -sim-workers counts; -worstcase-trace and -worstcase-replay add each
//     winner's evidence trace and a wall-clock loopback-tcp replay.
//
// -workers, -sessions, -backend and -sim-workers set the fields of the one
// bench.Engine every target runs its trials on. Results are identical at
// any -workers count and with or without -sessions. -backend retargets the
// experiments' runs onto the simulator (default) or a live or tcp cluster,
// whose latencies are real time. -sim-workers routes simulator runs through
// the parallel window executor, deterministic at any worker count but only
// δ-window close to the sequential loop. -metrics writes the recorder's
// metrics snapshot ("-" for stdout, *.json for JSON); -pprof serves
// net/http/pprof.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
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
	if err := runTargets(o, os.Stdout); err != nil {
		return err
	}
	return writeObs(o.rec, o.tracePath, o.metricsPath)
}

// parseArgs parses a command line into the options its targets run with.
func parseArgs(args []string) (*options, error) {
	o := &options{engine: &bench.Engine{}}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	scaleFlag := fs.String("scale", "quick", "experiment scale: quick or paper")
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
	case "paper":
		o.scale = bench.Paper
	default:
		return nil, fmt.Errorf("unknown scale %q (want quick or paper)", *scaleFlag)
	}
	if o.tracePath != "" || o.metricsPath != "" {
		o.rec = obs.New()
	}

	// Every experiment, then every command; `all` is each of them but
	// worstcase, the adversary-space search.
	var known []string
	for _, x := range bench.Experiments() {
		known = append(known, x.Name)
	}
	for _, c := range commands() {
		known = append(known, c.name)
	}
	all := slices.DeleteFunc(slices.Clone(known), func(t string) bool { return t == "worstcase" })
	targets := fs.Args()
	for _, t := range strings.Split(*runFlag, ",") {
		if t = strings.TrimSpace(t); t != "" {
			targets = append(targets, t)
		}
	}
	if len(targets) == 0 {
		targets = []string{"all"}
	}
	for _, t := range targets {
		names := []string{t}
		if t == "all" {
			names = all
		} else if !slices.Contains(known, t) {
			return nil, fmt.Errorf("%s: unknown target (want %s, or all)", t, strings.Join(known, ", "))
		}
		for _, name := range names {
			if !slices.Contains(o.targets, name) {
				o.targets = append(o.targets, name)
			}
		}
	}
	return o, nil
}

// command is a target that reads command-line flags; every other target is
// an experiment of bench.Experiments.
type command struct {
	name string
	run  func(*options) (string, error)
}

// commands lists the commands in the order `all` runs them, after the
// experiments.
func commands() []command {
	return []command{
		{"backends", runBackends},
		{"sessions", runSessions},
		{"service", runService},
		{"trace", runTrace},
		{"scale", runScale},
		{"worstcase", runWorstcase},
	}
}

// lookup returns the run function of the command named name, or nil when
// name is an experiment.
func lookup(name string) func(*options) (string, error) {
	for _, c := range commands() {
		if c.name == name {
			return c.run
		}
	}
	return nil
}

// runTargets runs o's targets and writes each one's text to w, in target
// order, followed by a blank line. The experiments among them run first,
// as one batch; each command then runs on its own. The timing lines go to
// stderr.
func runTargets(o *options, w io.Writer) error {
	var names []string
	for _, t := range o.targets {
		if lookup(t) == nil {
			names = append(names, t)
		}
	}
	texts := make(map[string]string)
	if len(names) > 0 {
		start := time.Now()
		out, err := o.engine.RunExperiments(names, o.scale, o.seed)
		if err != nil {
			return err
		}
		for i, name := range names {
			texts[name] = out[i]
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %s]\n", strings.Join(names, ","), time.Since(start).Round(time.Millisecond))
	}
	for _, t := range o.targets {
		text, ok := texts[t]
		if !ok {
			start := time.Now()
			var err error
			if text, err = lookup(t)(o); err != nil {
				return fmt.Errorf("%s: %w", t, err)
			}
			fmt.Fprintf(os.Stderr, "[%s completed in %s]\n", t, time.Since(start).Round(time.Millisecond))
		}
		fmt.Fprintf(w, "%s\n\n", strings.TrimRight(text, "\n"))
	}
	return nil
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
		fmt.Fprintf(os.Stderr, "[trace: %d events -> %s]\n", rec.EventCount(), tracePath)
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
	if o.scale == bench.Paper {
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
	if o.scale == bench.Paper {
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

// delphiSpec is the Delphi run of the sessions and trace targets: n=8
// (16 at paper scale) on the AWS testbed, Δ=64$, δ=20$.
func delphiSpec(o *options) bench.RunSpec {
	n := 8
	if o.scale == bench.Paper {
		n = 16
	}
	return bench.RunSpec{
		Protocol: bench.ProtoDelphi, N: n, F: bench.ProtoDelphi.Faults(n), Env: sim.AWS(), Seed: o.seed,
		Inputs: bench.OracleInputs(n, 41000, 20, o.seed), Delphi: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2},
	}
}

// runSessions smoke-runs the persistent-session path end to end: one
// 3-trial (quick) Delphi cell on the tcp backend through the engine, whose
// workers keep the cell's listeners and connections bound across trials.
// Per-trial agreement must hold on every trial; the printed wall times are
// real and non-deterministic.
func runSessions(o *options) (string, error) {
	trials := 3
	if o.scale == bench.Paper {
		trials = 10
	}
	spec := delphiSpec(o)
	spec.Backend = bench.BackendTCP
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
	fmt.Fprintf(&b, "tcp session smoke — %d trials, n=%d, %s\n", trials, spec.N, mode)
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
	if o.scale == bench.Paper {
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
	spec := delphiSpec(o)
	spec.SimWorkers, spec.Obs = o.engine.SimWorkers, rec
	st, err := bench.Run(spec)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace — Delphi n=%d on the simulator: %d trace events\n", spec.N, rec.EventCount())
	b.WriteString("metrics:\n")
	for _, m := range st.Metrics {
		line := &strings.Builder{}
		_ = obs.Metrics{m}.WriteText(line)
		b.WriteString("  " + line.String())
	}
	return b.String(), nil
}

// runScale measures the simulator's n=1000+ scale curve, sequential versus
// the 8-worker parallel window executor, in host wall time.
func runScale(o *options) (string, error) {
	rep, err := bench.ScaleSweep(o.scale, 8, o.seed)
	if err != nil {
		return "", err
	}
	return rep.Text, nil
}

// runWorstcase searches the adversary space for each protocol's empirical
// worst case and prints the profiles. Everything printed here is a pure
// function of (scale, seed, objective) on the simulator; the tcp replay
// lines are real wall-clock measurements and print only under
// -worstcase-replay so the deterministic output stays gateable.
func runWorstcase(o *options) (string, error) {
	protos := []bench.Protocol{bench.ProtoDelphi, bench.ProtoFIN}
	n, rungs, anneal := 8, 3, 6
	if o.scale == bench.Paper {
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
