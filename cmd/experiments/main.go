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
// and takes 1–2 minutes per figure on two cores. Trials fan out across
// bench.Engine's worker pool (GOMAXPROCS workers unless -workers is set);
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
// -sim-workers routes every simulator run through the parallel window
// executor with that many shard workers (0, the default, keeps the
// sequential loop). Parallel runs are deterministic across reruns and
// worker counts but tie-break differently from the sequential loop, so
// they agree with it statistically (δ-window), not byte for byte. The
// scale target measures the n=1000+ curve, sequential versus parallel,
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

// svcFlags carries the service target's knobs from flag parsing to
// dispatch; the initialisers are the flag defaults.
var svcFlags = struct {
	rounds   int
	rate     float64
	window   int
	queue    int
	duration time.Duration
	arrivals string
}{rounds: 200, rate: 100, window: 4, queue: 16, arrivals: "poisson"}

// worstFlags carries the worstcase target's knobs.
var worstFlags = struct {
	objective string
	replay    bool
	trace     string
}{objective: "latency"}

// obsRec is the run's shared recorder, created when -trace or -metrics asks
// for one; the instrumented targets (service, trace) attach it. Nil keeps
// every hook a free no-op.
var obsRec *obs.Recorder

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	scaleFlag := fs.String("scale", "quick", "experiment scale: quick, medium, or paper")
	seed := fs.Int64("seed", 1, "simulation seed")
	workers := fs.Int("workers", 0, "trial worker pool size (0 = GOMAXPROCS)")
	runFlag := fs.String("run", "", "comma-separated targets to run (adds to positional targets)")
	backendFlag := fs.String("backend", "sim", "execution backend for the workloads: sim, live, or tcp")
	sessions := fs.Bool("sessions", true, "reuse backend substrates (listeners, hubs, sim storage) across a cell's trials")
	simWorkers := fs.Int("sim-workers", 0, "parallel window executor shard workers for sim runs (0 = sequential)")
	fs.IntVar(&svcFlags.rounds, "service-rounds", svcFlags.rounds, "service target: arrivals to generate")
	fs.Float64Var(&svcFlags.rate, "service-rate", svcFlags.rate, "service target: arrival rate, rounds per second")
	fs.IntVar(&svcFlags.window, "service-window", svcFlags.window, "service target: max concurrent in-flight rounds")
	fs.IntVar(&svcFlags.queue, "service-queue", svcFlags.queue, "service target: waiting-room bound; overflow is shed")
	fs.DurationVar(&svcFlags.duration, "service-duration", svcFlags.duration, "service target: wall-clock cap on a live run (0 = none)")
	fs.StringVar(&svcFlags.arrivals, "service-arrivals", svcFlags.arrivals, "service target: interarrival law, poisson or bursty")
	fs.StringVar(&worstFlags.objective, "worstcase-objective", worstFlags.objective, "worstcase target: maximised metric, latency, spread, events, or bytes")
	fs.BoolVar(&worstFlags.replay, "worstcase-replay", worstFlags.replay, "worstcase target: validate each winner on the loopback-tcp backend (wall-clock)")
	fs.StringVar(&worstFlags.trace, "worstcase-trace", worstFlags.trace, "worstcase target: write each winner's evidence trace to PREFIX-<protocol>.json")
	traceFlag := fs.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) of the instrumented targets")
	metricsFlag := fs.String("metrics", "", "write the metrics snapshot: '-' for text on stdout, *.json for JSON, else text to the path")
	pprofFlag := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pprofFlag != "" {
		go func() {
			fmt.Fprintln(os.Stderr, "experiments: pprof:", http.ListenAndServe(*pprofFlag, nil))
		}()
	}
	obsRec = nil
	if *traceFlag != "" || *metricsFlag != "" {
		obsRec = obs.New()
	}
	bench.SetDefaultWorkers(*workers)
	bench.SetDefaultSessions(*sessions)
	bench.SetDefaultSimWorkers(*simWorkers)
	if err := bench.SetDefaultBackend(bench.BackendKind(*backendFlag)); err != nil {
		return err
	}
	var scale bench.Scale
	switch *scaleFlag {
	case "quick":
		scale = bench.Quick
	case "medium":
		scale = bench.Medium
	case "paper":
		scale = bench.Paper
	default:
		return fmt.Errorf("unknown scale %q", *scaleFlag)
	}

	targets := fs.Args()
	for _, t := range strings.Split(*runFlag, ",") {
		if t = strings.TrimSpace(t); t != "" {
			targets = append(targets, t)
		}
	}
	if len(targets) == 0 || (len(targets) == 1 && targets[0] == "all") {
		targets = []string{"fig4", "fig5", "table1", "table2", "table3",
			"fig6a", "fig6b", "fig6c", "fig7", "validity", "tail",
			"matrix", "adversary", "backends", "sessions", "service",
			"trace", "scale", "ablations"}
	}

	for _, target := range targets {
		start := time.Now()
		text, err := runTarget(target, scale, *seed)
		if err != nil {
			return fmt.Errorf("%s: %w", target, err)
		}
		fmt.Println(strings.TrimRight(text, "\n"))
		fmt.Printf("[%s completed in %s]\n\n", target, time.Since(start).Round(time.Millisecond))
	}
	return writeObs(obsRec, *traceFlag, *metricsFlag)
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

func runTarget(target string, scale bench.Scale, seed int64) (string, error) {
	switch target {
	case "table1":
		t, err := bench.Table1(scale, seed)
		if err != nil {
			return "", err
		}
		return t.Text, nil
	case "table2":
		t, err := bench.Table2(scale, seed)
		if err != nil {
			return "", err
		}
		return t.Text, nil
	case "table3":
		t, err := bench.Table3(scale, seed)
		if err != nil {
			return "", err
		}
		return t.Text, nil
	case "fig4":
		r, err := bench.Fig4(seed)
		if err != nil {
			return "", err
		}
		return r.Text, nil
	case "fig5":
		r, err := bench.Fig5(seed)
		if err != nil {
			return "", err
		}
		return r.Text, nil
	case "fig6a":
		f, err := bench.Fig6a(scale, seed)
		if err != nil {
			return "", err
		}
		return f.Text, nil
	case "fig6b":
		f, err := bench.Fig6b(scale, seed)
		if err != nil {
			return "", err
		}
		return f.Text, nil
	case "fig6c":
		f, err := bench.Fig6c(scale, seed)
		if err != nil {
			return "", err
		}
		return f.Text, nil
	case "fig7":
		aws, cps, err := bench.Fig7(scale, seed)
		if err != nil {
			return "", err
		}
		return aws.Text + "\n" + cps.Text, nil
	case "validity":
		reps, err := bench.Validity(scale, seed)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		b.WriteString("validity (§VI-E) — distance from honest mean\n")
		for _, r := range reps {
			b.WriteString(r.Text + "\n")
		}
		return b.String(), nil
	case "tail":
		rep, err := bench.LatencyTail(scale, seed)
		if err != nil {
			return "", err
		}
		return rep.Text, nil
	case "matrix":
		return runMatrix(scale, seed)
	case "adversary":
		rep, err := bench.AdversarySweep(scale, seed)
		if err != nil {
			return "", err
		}
		return rep.Text, nil
	case "backends":
		return runBackends(scale, seed)
	case "sessions":
		return runSessions(scale, seed)
	case "service":
		return runService(scale, seed)
	case "trace":
		return runTrace(scale, seed)
	case "scale":
		rep, err := bench.ScaleSweep(scale, 8, seed)
		if err != nil {
			return "", err
		}
		return rep.Text, nil
	case "ablations":
		return runAblations(seed)
	case "worstcase":
		return runWorstcase(scale, seed)
	default:
		return "", fmt.Errorf("unknown target (want table1..3, fig4..7, validity, tail, matrix, adversary, backends, sessions, service, trace, scale, ablations, worstcase)")
	}
}

// runBackends demonstrates the execution-backend axis: first the
// cross-backend validator (identical RunSpecs on the simulator and a live
// goroutine cluster must produce outputs in the same agreement window; the
// tcp backend joins above quick scale), then one Delphi matrix whose cells
// cross input shapes with backends. Simulator cells report virtual latency;
// live cells report real wall time and are excluded from byte-identity
// expectations.
func runBackends(scale bench.Scale, seed int64) (string, error) {
	kinds := []bench.BackendKind{bench.BackendSim, bench.BackendLive}
	if scale != bench.Quick {
		kinds = append(kinds, bench.BackendTCP)
	}
	rep, err := bench.DefaultEngine().ValidateCrossBackend(kinds, scale, seed)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(rep.Text)
	if !rep.OK() {
		return b.String(), fmt.Errorf("cross-backend validation failed:\n%s", rep.Text)
	}

	trials := 2
	if scale != bench.Quick {
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
	cells, err := bench.DefaultEngine().RunMatrix(m, seed)
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
func runSessions(scale bench.Scale, seed int64) (string, error) {
	trials := 3
	n := 8
	if scale != bench.Quick {
		trials, n = 10, 16
	}
	spec := bench.RunSpec{
		Protocol: bench.ProtoDelphi,
		N:        n,
		F:        (n - 1) / 3,
		Env:      sim.AWS(),
		Seed:     seed,
		Inputs:   bench.OracleInputs(n, 41000, 20, seed),
		Delphi:   core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2},
		Backend:  bench.BackendTCP,
	}
	stats, err := bench.DefaultEngine().RunTrials(spec, trials)
	if err != nil {
		return "", err
	}
	agg := bench.NewAggregate(false)
	for _, st := range stats {
		agg.Observe(st)
	}
	mode := "one persistent cluster per worker"
	if bench.DefaultEngine().DisableSessions {
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
func runService(scale bench.Scale, seed int64) (string, error) {
	n := 8
	if scale != bench.Quick {
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
		Rounds:   svcFlags.rounds,
		Rate:     svcFlags.rate,
		Window:   svcFlags.window,
		Queue:    svcFlags.queue,
		Duration: svcFlags.duration,
		Subscribers: feeds.Population{
			Size: 1_000_000, Seed: seed, Base: 5 * time.Millisecond,
			Jitter: dist.Lognormal{Mu: 2, Sigma: 0.5},
		},
		Representatives: 8,
		Obs:             obsRec,
	}
	switch svcFlags.arrivals {
	case "", "poisson":
	case "bursty":
		cfg.Arrivals = bench.ArrivalBursty
	default:
		return "", fmt.Errorf("unknown arrival law %q (want poisson or bursty)", svcFlags.arrivals)
	}
	rep, err := bench.DefaultEngine().RunService(cfg, seed)
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
func runTrace(scale bench.Scale, seed int64) (string, error) {
	rec := obsRec
	if rec == nil {
		rec = obs.New()
	}
	n := 8
	if scale != bench.Quick {
		n = 16
	}
	spec := bench.RunSpec{
		Protocol: bench.ProtoDelphi,
		N:        n,
		F:        (n - 1) / 3,
		Env:      sim.AWS(),
		Seed:     seed,
		Inputs:   bench.OracleInputs(n, 41000, 20, seed),
		Delphi:   core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2},
		Obs:      rec,
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
func runMatrix(scale bench.Scale, seed int64) (string, error) {
	ns := []int{16}
	trials := 2
	if scale != bench.Quick {
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
	cells, err := bench.DefaultEngine().RunMatrix(m, seed)
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
func runWorstcase(scale bench.Scale, seed int64) (string, error) {
	protos := []bench.Protocol{bench.ProtoDelphi, bench.ProtoFIN}
	n, rungs, anneal := 8, 3, 6
	if scale != bench.Quick {
		protos = append(protos, bench.ProtoAbraham)
		n, anneal = 16, 12
	}
	var b strings.Builder
	for _, proto := range protos {
		p, err := advsearch.Search(advsearch.Config{
			Protocol:    proto,
			N:           n,
			Seed:        seed,
			Objective:   advsearch.Objective(worstFlags.objective),
			Rungs:       rungs,
			AnnealSteps: anneal,
		})
		if err != nil {
			return "", err
		}
		b.WriteString(p.Text())
		if worstFlags.trace != "" {
			path := fmt.Sprintf("%s-%s.json", worstFlags.trace, proto)
			if err := os.WriteFile(path, p.Trace, 0o644); err != nil {
				return "", fmt.Errorf("write evidence trace: %w", err)
			}
			fmt.Fprintf(&b, "  [evidence trace: %d events -> %s]\n", p.TraceEvents, path)
		}
		if worstFlags.replay {
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

func runAblations(seed int64) (string, error) {
	var b strings.Builder
	single, multi, err := bench.AblationSingleLevel(16, seed)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "ablation: single-level strawman (ρ0=Δ) vs multi-level, n=16 δ=10$\n")
	fmt.Fprintf(&b, "  single-level |out−mean|=%.1f$   multi-level |out−mean|=%.2f$\n",
		single.MeanAbsErr, multi.MeanAbsErr)

	rows, err := bench.AblationEps(16, seed)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "ablation: ε sweep (n=16, δ=20$)\n")
	fmt.Fprintf(&b, "  %-8s %8s %10s %12s %8s\n", "eps", "rounds", "spread", "latency(ms)", "MB")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s %8d %10.4g %12.0f %8.2f\n", r.Name, r.Rounds, r.Spread, r.LatencyMS, r.MB)
	}

	comp, plain, err := bench.AblationCompression(16, seed)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "ablation: §II-C wire compression (n=16, δ=20$)\n")
	fmt.Fprintf(&b, "  compressed: %.2f MB   plain: %.2f MB   saving: %.1fx\n",
		float64(comp.TotalBytes)/1e6, float64(plain.TotalBytes)/1e6,
		float64(plain.TotalBytes)/float64(comp.TotalBytes))

	slow, fast, err := bench.AblationCoinCost(16, seed)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "ablation: FIN coin cost on CPS hardware (n=16)\n")
	fmt.Fprintf(&b, "  pairing-class coin: %s   hash-class coin: %s\n",
		slow.Latency.Round(time.Millisecond), fast.Latency.Round(time.Millisecond))

	clean, crashed, byzantine, err := bench.AblationFaults(16, seed)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "ablation: fault load (n=16, δ=20$, f=5)\n")
	fmt.Fprintf(&b, "  clean: %s %.2fMB   f crashes: %s %.2fMB   f byz spammers: %s %.2fMB\n",
		clean.Latency.Round(time.Millisecond), float64(clean.TotalBytes)/1e6,
		crashed.Latency.Round(time.Millisecond), float64(crashed.TotalBytes)/1e6,
		byzantine.Latency.Round(time.Millisecond), float64(byzantine.TotalBytes)/1e6)

	advRows, err := bench.AblationAdversary(16, seed)
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
