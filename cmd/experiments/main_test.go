package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"delphi/internal/bench"
	"delphi/internal/run"
)

// TestRunTargetDispatch drives the cheap end of the pipeline: flag
// parsing, target dispatch, and rendering, without heavy simulation.
func TestRunTargetDispatch(t *testing.T) {
	o := defaultOptions(t)
	o.targets = []string{"fig4", "fig5"}
	text, err := runText(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range o.targets {
		if !strings.Contains(text, target) {
			t.Errorf("%s: rendering lacks the figure name:\n%s", target, text)
		}
	}
	if err := execute([]string{"nope"}); err == nil {
		t.Error("unknown target: want error")
	}
	if err := execute([]string{"-scale", "warp9"}); err == nil {
		t.Error("bad scale flag: want error")
	}
	if err := execute([]string{"-scale", "medium", "fig4"}); err == nil {
		t.Error("-scale medium: want error")
	}
	if err := execute([]string{"-backend", "warp", "fig4"}); err == nil {
		t.Error("bad backend flag: want error")
	}
}

// runText runs o's targets and returns what they print.
func runText(o *options) (string, error) {
	var b strings.Builder
	err := runTargets(o, &b)
	return b.String(), err
}

// TestBackendFlagRetargetsWorkloads pins -backend live on an existing
// target: the matrix must execute on the live cluster (wall-clock
// latencies, so no byte-identity claim — just success and sane rendering).
func TestBackendFlagRetargetsWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("live-cluster harness test")
	}
	if err := execute([]string{"-backend", "live", "-scale", "quick", "matrix"}); err != nil {
		t.Fatalf("-backend live matrix: %v", err)
	}
}

// TestPaperScaleSmoke exercises the experiments pipeline at the paper's
// full sizing end to end — the scale CI never used to touch. Table II
// (Delphi at n=64 under the three input conditions) is the cheapest
// paper-scale simulation target; Figs. 4/5 ride along to cover the
// figure-rendering path at their full (scale-independent) corpus sizes.
// The test is timed: the engine plus the BinAA hot-path representation
// keep it well under the budget, and a regression that re-serialises
// trials or bloats the simulator shows up here first.
func TestPaperScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale smoke (several seconds per target)")
	}
	const budget = 5 * time.Minute
	start := time.Now()
	o := defaultOptions(t)
	o.scale = bench.Paper
	for _, target := range []string{"fig4", "fig5", "table2"} {
		o.targets = []string{target}
		text, err := runText(o)
		if err != nil {
			t.Fatalf("paper-scale %s: %v", target, err)
		}
		if strings.TrimSpace(text) == "" {
			t.Fatalf("paper-scale %s: empty rendering", target)
		}
		t.Logf("%s done at %s", target, time.Since(start).Round(time.Millisecond))
	}
	if elapsed := time.Since(start); elapsed > budget {
		t.Errorf("paper-scale smoke took %s, budget %s", elapsed.Round(time.Second), budget)
	}
}

// TestAdversaryTargetDeterministic drives the acceptance criterion for the
// adversary axis end to end: `-run adversary` sweeps the named DelayRule
// presets across Delphi and FIN, and its rendered output is byte-identical
// across reruns and across worker counts.
func TestAdversaryTargetDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test")
	}
	o := defaultOptions(t)
	o.engine.Workers = 1
	o.targets = []string{"adversary"}
	first, err := runText(o)
	if err != nil {
		t.Fatalf("adversary target: %v", err)
	}
	for _, name := range []string{"none", "slow-f", "gray", "partition", "coin-rush", "jitter-storm",
		"delphi", "fin"} {
		if !strings.Contains(first, name) {
			t.Errorf("adversary sweep output lacks %q:\n%s", name, first)
		}
	}
	for _, workers := range []int{1, 4, 16} {
		o.engine.Workers = workers
		again, err := runText(o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if again != first {
			t.Errorf("workers=%d: adversary sweep output differs from sequential run:\n%s\nvs\n%s",
				workers, again, first)
		}
	}
}

// TestServiceTarget drives `-run service` end to end on the sim backend:
// the deterministic service model must render its full report, and reruns
// at different worker counts must render it byte-identically.
func TestServiceTarget(t *testing.T) {
	o := defaultOptions(t)
	o.engine.Workers = 1
	first, err := runService(o)
	if err != nil {
		t.Fatalf("service target: %v", err)
	}
	for _, want := range []string{"service backend=sim", "rounds:", "occupancy:",
		"throughput:", "latency ms:", "staleness ms:"} {
		if !strings.Contains(first, want) {
			t.Errorf("service output lacks %q:\n%s", want, first)
		}
	}
	for _, workers := range []int{4, 16} {
		o.engine.Workers = workers
		again, err := runService(o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if again != first {
			t.Errorf("workers=%d: service report differs from sequential run:\n%s\nvs\n%s",
				workers, again, first)
		}
	}
}

// TestRunFlagSelectsTargets pins the -run flag: flag targets compose with
// positional ones (both must run), `all` expands wherever it appears, a
// target named twice runs once, and every name is checked before anything
// runs.
func TestRunFlagSelectsTargets(t *testing.T) {
	if err := execute([]string{"-run", "fig4", "fig5"}); err != nil {
		t.Errorf("-run fig4 + positional fig5: %v", err)
	}
	for _, c := range []struct {
		args []string
		want []string // nil: an error
	}{
		{[]string{"-run", "fig4", "fig5"}, []string{"fig5", "fig4"}},
		{[]string{"-run", "fig5,fig4,fig5"}, []string{"fig5", "fig4"}},
		{[]string{"-run", "nope"}, nil},
		// The flag must not swallow the positional list.
		{[]string{"-run", "fig4", "nope"}, nil},
		// The typo fails before Fig. 6a runs.
		{[]string{"-run", "fig6a,typo"}, nil},
		{[]string{"-run", "fig6a,all"}, append([]string{"fig6a", "fig4", "fig5", "table1", "table2", "table3", "fig6b"},
			"fig6c", "fig7", "validity", "tail", "matrix", "adversary", "ablations",
			"service")},
		{[]string{"worstcase", "all"}, []string{"worstcase", "fig4", "fig5", "table1", "table2", "table3", "fig6a",
			"fig6b", "fig6c", "fig7", "validity", "tail", "matrix", "adversary", "ablations",
			"service"}},
	} {
		o, err := parseArgs(c.args)
		switch {
		case c.want == nil && err == nil:
			t.Errorf("%v: targets %v, want an error", c.args, o.targets)
		case c.want != nil && err != nil:
			t.Errorf("%v: %v", c.args, err)
		case c.want != nil && !slices.Equal(o.targets, c.want):
			t.Errorf("%v: targets %v, want %v", c.args, o.targets, c.want)
		}
	}
}

// TestFlagsReachEngine pins each engine flag to its field on the one
// engine the parsed options carry, and the defaults to the zero engine
// plus the simulator.
func TestFlagsReachEngine(t *testing.T) {
	o, err := parseArgs([]string{"-workers", "3", "-sessions=false", "-backend", "live", "fig4"})
	if err != nil {
		t.Fatal(err)
	}
	want := bench.Engine{Workers: 3, DisableSessions: true, Backend: run.BackendLive}
	if *o.engine != want {
		t.Errorf("engine = %+v, want %+v", *o.engine, want)
	}
	if len(o.targets) != 1 || o.targets[0] != "fig4" {
		t.Errorf("targets = %v, want [fig4]", o.targets)
	}
	if d := defaultOptions(t); *d.engine != (bench.Engine{Backend: run.BackendSim}) {
		t.Errorf("default engine = %+v", *d.engine)
	}
	if _, err := parseArgs([]string{"-sim-workers", "2", "fig4"}); err == nil {
		t.Error("-sim-workers accepted: the engine picks shard counts itself")
	}
}

// TestWorkersMoveNoResult pins the engine's core budget to wall time only:
// fig6a's quick-scale text is byte-identical at -workers 1, 2 and 8.
func TestWorkersMoveNoResult(t *testing.T) {
	var first string
	for _, w := range []string{"1", "2", "8"} {
		text, err := runText(defaultOptions(t, "-workers", w, "-run", "fig6a"))
		if err != nil {
			t.Fatalf("-workers %s: %v", w, err)
		}
		if first == "" {
			first = text
		} else if text != first {
			t.Errorf("-workers %s: fig6a text differs from -workers 1's:\n%s\nvs\n%s", w, text, first)
		}
	}
}

// TestTraceTableTarget pins -trace on a table target: the engine's
// recorder records table2's runs, the trace bytes are the same at any
// -workers count, and the printed text is the untraced run's.
func TestTraceTableTarget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	untraced := defaultOptions(t, "-run", "table2")
	want, err := runText(untraced)
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for _, workers := range [][]string{{"-workers", "1"}, {"-workers", "8"}} {
		o := defaultOptions(t, append(workers, "-run", "table2", "-trace", path)...)
		text, err := runText(o)
		if err != nil {
			t.Fatal(err)
		}
		if text != want {
			t.Errorf("%v: traced text differs from the untraced run:\n%s\nvs\n%s", workers, text, want)
		}
		if err := writeObs(o.engine.Obs, o.tracePath, o.metricsPath); err != nil {
			t.Fatal(err)
		}
		if o.engine.Obs.EventCount() == 0 {
			t.Fatalf("%v: the trace recorded no events", workers)
		}
		trace, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = trace
		} else if !bytes.Equal(trace, first) {
			t.Errorf("%v: trace bytes differ from the first run's", workers)
		}
	}
}

// TestWorstcaseEvidenceTraces pins -trace on the worstcase target: each
// protocol's winner writes its evidence trace beside the trace path.
func TestWorstcaseEvidenceTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("adversary-space search (about 2 s)")
	}
	dir := t.TempDir()
	if _, err := runText(defaultOptions(t, "-run", "worstcase", "-trace", filepath.Join(dir, "x.json"))); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"x-delphi.json", "x-fin.json"} {
		if b, err := os.ReadFile(filepath.Join(dir, name)); err != nil || len(b) == 0 {
			t.Errorf("%s: %d bytes, %v", name, len(b), err)
		}
	}
}

// defaultOptions returns the options of a command line made of args alone.
func defaultOptions(t *testing.T, args ...string) *options {
	t.Helper()
	o, err := parseArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	return o
}
