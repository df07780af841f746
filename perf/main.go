// Command perf is the repository's benchmark: five workloads, the
// end-to-end metrics a user of the system would quote, and — in the traced
// pass — a per-layer ledger measured from outside the layers. README.md in
// this directory is the manual; BENCHMARK.json at the repository root is
// the machine-readable summary, rendered by `perf -print-spec`.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// normalizeArgs lets -trace be written both ways the benchmark is invoked:
// as a switch (`-trace`) and with a separate value (`--trace 0`, which the
// flag package would otherwise read as a switch followed by a stray
// argument).
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "run one workload and print its result as the last line; empty runs all five, one process each")
		seed      = fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds   = fs.Float64("seconds", runSeconds, "length of a run's measured window")
		trace     = fs.Bool("trace", false, "traced pass: report the per-layer metrics and write a span file per workload")
		aa        = fs.Int("aa", 0, "A/A mode: run the suite this many times, workloads interleaved, seeds seed..seed+K-1, and report each metric's spread against its bound")
		smoke     = fs.Bool("smoke", false, "tiny sizes and a handful of ops per workload, in this process")
		outDir    = fs.String("out", filepath.Join("perf", "out"), "directory for result and span files")
		printSpec = fs.Bool("print-spec", false, "print BENCHMARK.json and exit")
	)
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perf: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace, smoke: *smoke, outDir: *outDir}
	var err error
	switch {
	case *printSpec:
		err = printBenchmarkSpec(stdout)
	case *workload != "":
		err = runOne(cfg, stdout)
	case *smoke:
		err = runSmoke(cfg, stdout)
	case *aa > 0:
		err = runAA(cfg, *aa, stdout, stderr)
	default:
		_, err = runSuite(cfg, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	return 0
}

func printBenchmarkSpec(w io.Writer) error {
	spec := benchmarkSpec()
	if err := spec.validate(); err != nil {
		return err
	}
	b, err := spec.marshal()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// errIncorrect is returned after a result with failed ops has been printed:
// the numbers are on record, and the exit status still says no.
var errIncorrect = fmt.Errorf("correctness check failed")

// runOne runs one workload in this process. The result is the last line
// written; a run that cannot produce every metric prints none.
func runOne(cfg runConfig, stdout io.Writer) error {
	d, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	report(stdout, d)
	line, err := json.Marshal(d.Result)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !d.Result.Correct {
		return errIncorrect
	}
	return nil
}

// report prints a run for a human: host facts, the drift sentinel, the
// correctness tally, then every metric by name with its unit.
func report(w io.Writer, d *detail) {
	def, _ := findWorkload(d.Workload)
	fmt.Fprintf(w, "== %s  seed=%d trace=%v seconds=%g\n   %s\n", d.Workload, d.Seed, d.Trace, d.Seconds, def.Why)
	h := d.Host
	fmt.Fprintf(w, "   host: nproc=%d GOMAXPROCS=%d cpu=%q %s commit=%s\n", h.NProc, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.Commit)
	fmt.Fprintf(w, "   host kernel: before=%.1f ms after=%.1f ms noisy=%v during=%.1f ms (reference %.1f)   swallowed log lines: %d\n",
		d.SpinBefore, d.SpinAfter, d.Noisy, d.KernelMS, kernelRefMS, d.LogLines)
	fmt.Fprintf(w, "   ops=%d attempted=%d failed=%d fail_frac=%g window=%.2f s  raw op ms p25/p50/p75=%.3f/%.3f/%.3f\n",
		d.Ops, d.Result.Attempted, d.Result.Failed, d.FailFrac, d.WindowS, d.OpP25, d.RawOpP50, d.OpP75)
	if len(d.SetupS) > 0 {
		fmt.Fprintf(w, "   set-ups (s): %.3f\n", d.SetupS)
	}
	for _, f := range d.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	if d.TraceFile != "" {
		fmt.Fprintf(w, "   spans: %s\n", d.TraceFile)
	}
	defs := endToEndDefs
	if d.Trace {
		defs = perLayerDefs
	}
	for _, def := range defs {
		fmt.Fprintf(w, "   %-36s %16.6g %s\n", def.Name, d.Result.Metrics[def.Name].Value, def.Unit)
	}
}

// runSmoke runs every workload at smoke size in this process.
func runSmoke(cfg runConfig, stdout io.Writer) error {
	for _, w := range workloadDefs {
		c := cfg
		c.workload = w.Name
		d, err := runWorkload(c)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		report(stdout, d)
		if !d.Result.Correct {
			return fmt.Errorf("%s: %w", w.Name, errIncorrect)
		}
	}
	return nil
}

// runChild runs one workload in a process of its own — peak RSS, the
// allocator's state and GC pacing then belong to that workload alone — and
// returns the result it printed last.
func runChild(cfg runConfig, stdout, stderr io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace="+strconv.FormatBool(cfg.trace),
		"-out", cfg.outDir)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(&buf, stdout)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, runErr)
		}
		return nil, fmt.Errorf("%s printed no result: %w", cfg.workload, err)
	}
	return &res, nil
}

// runSuite runs the five workloads one after another and prints the
// end-to-end (or per-layer) table across them.
func runSuite(cfg runConfig, stdout, stderr io.Writer) (map[string]*result, error) {
	results := make(map[string]*result, len(workloadDefs))
	for _, w := range workloadDefs {
		c := cfg
		c.workload = w.Name
		res, err := runChild(c, stdout, stderr)
		if err != nil {
			return nil, err
		}
		results[w.Name] = res
	}
	defs := endToEndDefs
	if cfg.trace {
		defs = perLayerDefs
	}
	fmt.Fprintf(stdout, "\n%-36s %-6s", "metric", "unit")
	for _, w := range workloadDefs {
		fmt.Fprintf(stdout, " %14s", w.Name)
	}
	fmt.Fprintln(stdout)
	for _, def := range defs {
		fmt.Fprintf(stdout, "%-36s %-6s", def.Name, def.Unit)
		for _, w := range workloadDefs {
			fmt.Fprintf(stdout, " %14.6g", results[w.Name].Metrics[def.Name].Value)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%-36s %-6s", "fail_frac", "ratio")
	bad := 0
	for _, w := range workloadDefs {
		r := results[w.Name]
		fmt.Fprintf(stdout, " %14.6g", float64(r.Failed)/float64(r.Attempted))
		bad += r.Failed
	}
	fmt.Fprintln(stdout)
	if bad > 0 {
		return results, errIncorrect
	}
	return results, nil
}

// runAA is the A/A tool: K passes over the suite on the same code, each on
// its own seed, workloads interleaved round-robin so that host drift lands
// on all of them alike. It is how a bound is shown to hold — or a metric to
// need demoting — before the numbers are used to judge a change.
func runAA(cfg runConfig, k int, stdout, stderr io.Writer) error {
	values := map[string]map[string][]float64{} // workload → metric → K values
	failed := 0
	for pass := 0; pass < k; pass++ {
		for _, w := range workloadDefs {
			c := cfg
			c.workload = w.Name
			c.seed = cfg.seed + int64(pass)
			res, err := runChild(c, io.Discard, stderr)
			if err != nil {
				return err
			}
			failed += res.Failed
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], v.Value)
			}
			fmt.Fprintf(stdout, "pass %d/%d %-14s seed=%d failed=%d\n", pass+1, k, w.Name, c.seed, res.Failed)
		}
	}
	defs := endToEndDefs
	if cfg.trace {
		defs = perLayerDefs
	}
	outside := 0
	for _, def := range defs {
		for _, w := range workloadDefs {
			vs := values[w.Name][def.Name]
			q1, q2, q3 := quartiles(vs)
			s := sorted(vs)
			sp := spread(vs)
			verdict := ""
			// setup_s is gated on its median only; every other bounded
			// metric also on its spread.
			if def.Bound > 0 && def.Name != "setup_s" && sp > def.Bound {
				verdict = "  OUTSIDE BOUND"
				outside++
			}
			fmt.Fprintf(stdout, "%-20s %-14s median=%-12.6g q1=%-12.6g q3=%-12.6g min=%-12.6g max=%-12.6g spread=%.4f bound=%g%s\n",
				def.Name, w.Name, q2, q1, q3, s[0], s[len(s)-1], sp, def.Bound, verdict)
			fmt.Fprintf(stdout, "    values: %s\n", formatValues(vs))
		}
	}
	if failed > 0 {
		return errIncorrect
	}
	if outside > 0 {
		return fmt.Errorf("%d metric x workload pairs spread wider than their bound", outside)
	}
	return nil
}

func formatValues(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'g', 6, 64)
	}
	return strings.Join(parts, " ")
}
