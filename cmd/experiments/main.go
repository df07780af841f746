// Command experiments regenerates the paper's evaluation artefacts: every
// table (I–III) and figure (4–7) plus the §VI-E validity analysis and the
// design ablations, printing the same rows/series the paper reports.
//
// Usage:
//
//	experiments [-scale quick|paper] [-seed N] [-workers K] [-run T1,T2]
//	            [-backend sim|live|tcp] [-sessions=false] [-sim-workers K]
//	            [-trace out.json] [-metrics out|-] [-pprof addr]
//	            [-worstcase-objective latency|spread|events|bytes]
//	            [-worstcase-replay] [-worstcase-trace prefix]
//	            [fig4 fig5 table1 table2 table3 fig6a fig6b fig6c fig7
//	             validity tail matrix adversary ablations
//	             service trace worstcase | all]
//
// Targets are selected positionally or with -run (comma-separated); the
// two compose, and `all` anywhere in the list stands for every target but
// worstcase. Every name is checked before anything runs, and a target named
// twice runs once. Stdout holds only the targets' text; the timing lines go
// to stderr. Quick scale (default) finishes in seconds; paper scale uses the
// paper's axes (n up to 169).
//
// The targets up to ablations are the experiments of bench.Experiments.
// They run as one batch of simulations in which a run two experiments
// share, such as fig6a's and fig6b's FIN and Abraham et al. runs, runs
// once. The rest are commands:
//
//   - service runs the continuous-service oracle mode: deterministic on
//     the simulator, a wall-clock soak on live/tcp.
//   - trace runs one instrumented simulator trial and prints its metrics;
//     -trace writes its Chrome trace-event JSON (Perfetto-loadable), the
//     same bytes at any -sim-workers count.
//   - worstcase searches the adversary space for each protocol's empirical
//     worst case (-worstcase-objective), byte-identical across reruns and
//     -sim-workers counts; -worstcase-trace and -worstcase-replay add each
//     winner's evidence trace and a wall-clock loopback-tcp replay.
//
// Every run is checked where its outputs are assembled
// (run.RunSpec.StatsFromOutputs): a run that breaks ε-agreement or
// validity, or a DORA certificate that does not verify, fails its target,
// on every backend.
//
// -workers, -sessions, -backend and -sim-workers set the fields of the one
// bench.Engine every target runs its trials on. Results are identical at
// any -workers count and with or without -sessions. -backend retargets the
// experiments' runs onto the simulator (default) or a live goroutine
// cluster or loopback tcp cluster, whose latencies are real time; so
// `-backend tcp -run matrix` is a checked tcp run, through one persistent
// session per worker unless -sessions=false. -sim-workers routes simulator
// runs through the parallel window executor, deterministic at any worker
// count but only δ-window close to the sequential loop. -metrics writes the
// recorder's metrics snapshot ("-" for stdout, *.json for JSON); -pprof
// serves net/http/pprof.
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

	"delphi/internal/advsearch"
	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/dist"
	"delphi/internal/feeds"
	"delphi/internal/obs"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// options is one parsed command line: the engine every target runs its
// trials on, the experiment sizing, the per-target knobs, and what run
// does around the targets.
type options struct {
	engine *bench.Engine
	scale  bench.Scale
	seed   int64
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
	if err := execute(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func execute(args []string) error {
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
	kind, err := bench.ParseBackend(*backendFlag)
	if err != nil {
		return nil, err
	}
	o.engine.Backend = kind
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
		{"service", runService},
		{"trace", runTrace},
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

// runService drives the continuous-service oracle mode on whatever backend
// -backend selected (the sim model is deterministic; live/tcp are wall-clock
// soaks) and renders the service report: round accounting, backpressure
// high-water marks, latency split, throughput, and subscriber staleness.
// It offers 200 rounds as Poisson arrivals at 100 per second, with 4 rounds
// in flight and 16 waiting.
func runService(o *options) (string, error) {
	n := 8
	if o.scale == bench.Paper {
		n = 16
	}
	rep, err := o.engine.RunService(bench.ServiceConfig{
		Scenario: bench.Scenario{
			Name:     "service",
			Protocol: run.ProtoDelphi,
			N:        n,
			Env:      sim.AWS(),
			Params:   core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2},
			Center:   41000,
			Delta:    20,
		},
		Rounds: 200,
		Rate:   100,
		Window: 4,
		Queue:  16,
		Subscribers: feeds.Population{
			Size: 1_000_000, Seed: o.seed, Base: 5 * time.Millisecond,
			Jitter: dist.Lognormal{Mu: 2, Sigma: 0.5},
		},
		Representatives: 8,
		Obs:             o.rec,
	}, o.seed)
	if err != nil {
		return "", err
	}
	return rep.Text(), nil
}

// runTrace runs one instrumented simulator trial, Delphi at n=8 (16 at
// paper scale) on the AWS testbed with Δ=64$ and δ=20$: protocol phase
// spans land on per-node virtual-clock tracks, driver flushes and sim
// internals on their own, and the metrics registry collects the counters.
// It prints the metrics snapshot (deterministic on the simulator); -trace
// captures the spans. Without -trace or -metrics it still runs, on its own
// recorder, so the instrumented path is exercised either way. With
// -sim-workers K the trial goes through the parallel executor; the trace
// bytes are identical at any K — scripts/ci.sh gates exactly that.
func runTrace(o *options) (string, error) {
	rec := o.rec
	if rec == nil {
		rec = obs.New()
	}
	n := 8
	if o.scale == bench.Paper {
		n = 16
	}
	spec := run.RunSpec{
		Protocol: run.ProtoDelphi, N: n, F: run.ProtoDelphi.Faults(n), Env: sim.AWS(), Seed: o.seed,
		Inputs: bench.OracleInputs(n, 41000, 20, o.seed), Delphi: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2},
		SimWorkers: o.engine.SimWorkers, Obs: rec,
	}
	st, err := run.Run(spec)
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

// runWorstcase searches the adversary space for each protocol's empirical
// worst case and prints the profiles. Everything printed here is a pure
// function of (scale, seed, objective) on the simulator; the tcp replay
// lines are real wall-clock measurements and print only under
// -worstcase-replay so the deterministic output stays gateable.
func runWorstcase(o *options) (string, error) {
	protos := []run.Protocol{run.ProtoDelphi, run.ProtoFIN}
	n, rungs, anneal := 8, 3, 6
	if o.scale == bench.Paper {
		protos = append(protos, run.ProtoAbraham)
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
