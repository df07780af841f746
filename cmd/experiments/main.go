// Command experiments regenerates the paper's evaluation artefacts: every
// table (I–III) and figure (4–7) plus the §VI-E validity analysis and the
// design ablations, printing the same rows/series the paper reports.
//
// Usage:
//
//	experiments [-scale quick|paper] [-seed N] [-workers K] [-run T1,T2]
//	            [-backend sim|live|tcp] [-sessions=false] [-sim-workers K]
//	            [-trace out.json] [-metrics out|-]
//	            [fig4 fig5 table1 table2 table3 fig6a fig6b fig6c fig7
//	             validity tail matrix adversary ablations
//	             service worstcase | all]
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
//   - worstcase searches the adversary space for each protocol's empirical
//     worst-case decision latency, byte-identical across reruns and
//     -sim-workers counts. With -trace out.json it writes each winner's
//     evidence trace to out-<protocol>.json.
//
// Every run is checked where its outputs are assembled
// (run.RunSpec.StatsFromOutputs): a run that breaks ε-agreement or
// validity, or a DORA certificate that does not verify, fails its target,
// on every backend.
//
// -workers, -sessions, -backend, -sim-workers, -trace and -metrics set the
// fields of the one bench.Engine every target runs its trials on. Results
// are identical at any -workers count and with or without -sessions.
// -backend retargets the runs onto the simulator (default) or a live
// goroutine or loopback tcp cluster, whose latencies are real time; so
// `-backend tcp -run matrix` is a checked tcp run, through one persistent
// session per worker unless -sessions=false. -sim-workers spreads each
// simulator run's window shards over that many workers; it moves no result.
//
// -trace and -metrics attach one recorder to the engine. It records every
// run of the selected targets, one trial at a time (-workers is then
// ignored), and moves no printed result. -trace writes its Chrome
// trace-event JSON (Perfetto-loadable), on the simulator the same bytes at
// any -workers or -sim-workers count; -metrics writes its metrics snapshot
// ("-" for stdout, *.json for JSON).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

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
// trials on, the experiment sizing, and where the engine's recorder is
// written.
type options struct {
	engine *bench.Engine
	scale  bench.Scale
	seed   int64

	targets                []string
	tracePath, metricsPath string
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
	if err := runTargets(o, os.Stdout); err != nil {
		return err
	}
	return writeObs(o.engine.Obs, o.tracePath, o.metricsPath)
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
	fs.IntVar(&o.engine.SimWorkers, "sim-workers", 0, "window executor shard workers for sim runs")
	fs.StringVar(&o.tracePath, "trace", "", "record every run and write a Chrome trace-event JSON (Perfetto-loadable); worstcase adds PATH-<protocol>.json")
	fs.StringVar(&o.metricsPath, "metrics", "", "record every run and write the metrics snapshot: '-' for text on stdout, *.json for JSON, else text to the path")
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
		o.engine.Obs = obs.New()
	}

	// Every experiment, then the commands; `all` is each of them but
	// worstcase, the adversary-space search.
	var all []string
	for _, x := range bench.Experiments() {
		all = append(all, x.Name)
	}
	all = append(all, "service")
	known := append(slices.Clone(all), "worstcase")
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

// command returns the run function of the command named name, a target
// that reads command-line flags, or nil when name is an experiment of
// bench.Experiments.
func command(name string) func(*options) (string, error) {
	switch name {
	case "service":
		return runService
	case "worstcase":
		return runWorstcase
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
		if command(t) == nil {
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
			if text, err = command(t)(o); err != nil {
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
	}, o.seed)
	if err != nil {
		return "", err
	}
	return rep.Text(), nil
}

// runWorstcase searches the adversary space for each protocol's empirical
// worst-case decision latency and prints the profiles. Everything printed
// here is a pure function of (scale, seed) on the simulator.
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
			Objective:   advsearch.ObjLatency,
			Rungs:       rungs,
			AnnealSteps: anneal,
			SimWorkers:  o.engine.SimWorkers,
		})
		if err != nil {
			return "", err
		}
		b.WriteString(p.Text())
		if o.tracePath != "" {
			path := fmt.Sprintf("%s-%s.json", strings.TrimSuffix(o.tracePath, filepath.Ext(o.tracePath)), proto)
			if err := os.WriteFile(path, p.Trace, 0o644); err != nil {
				return "", fmt.Errorf("write evidence trace: %w", err)
			}
			fmt.Fprintf(&b, "  [evidence trace: %d events -> %s]\n", p.TraceEvents, path)
		}
	}
	return b.String(), nil
}
