package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"delphi/internal/bench"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantileHelpers(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	if got := median(xs); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
	if got := quantile(xs, 0.25); got != 3 {
		t.Errorf("quantile(0.25) = %g, want 3", got)
	}
	if got := quantile(xs, 0); got != 1 {
		t.Errorf("quantile(0) = %g, want 1", got)
	}
	if got := quantile(xs, 1); got != 9 {
		t.Errorf("quantile(1) = %g, want 9", got)
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("interpolated median = %g, want 1.5", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(mean(nil)) {
		t.Error("empty sample must read NaN")
	}
	if got := mean(xs); got != 5 {
		t.Errorf("mean = %g, want 5", got)
	}
	if !sort.Float64sAreSorted(sorted(xs)) || xs[0] != 9 {
		t.Error("sorted must copy, not reorder its argument")
	}
}

// The spread of a metric is defined through Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 12, 11, 30}, 10.25, 11.5, 25.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if supportsPercentile(199, 0.95) || !supportsPercentile(200, 0.95) {
		t.Error("p95 needs exactly 200 samples to leave ten beyond it")
	}
	if supportsPercentile(19, 0.5) || !supportsPercentile(20, 0.5) {
		t.Error("the median needs 20 samples to leave ten beyond it")
	}
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, used := tailPercentile(xs, 0.99); used != 0.90 {
		t.Errorf("150 samples support p90, got p%g", used*100)
	}
	if _, used := tailPercentile(xs[:8], 0.95); used != 0.5 {
		t.Errorf("8 samples fall back to the median, got p%g", used*100)
	}
	if v, used := tailPercentile(append(xs, xs...), 0.95); used != 0.95 || v < 140 {
		t.Errorf("300 samples support p95: got p%g = %g", used*100, v)
	}
}

func TestDurHist(t *testing.T) {
	var h durHist
	for i := 1; i <= 1000; i++ {
		h.add(int64(i) * 1000)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 500e3}, {0.99, 990e3}} {
		got := h.percentile(c.p)
		if math.Abs(got-c.want)/c.want > 0.10 {
			t.Errorf("p%g = %g, want %g within a tenth", c.p*100, got, c.want)
		}
	}
	var sum durHist
	sum.merge(&h)
	sum.merge(&h)
	if sum.percentile(0.5) != h.percentile(0.5) {
		t.Error("merging a histogram into itself must not move its percentiles")
	}
	var empty durHist
	if empty.percentile(0.5) != 0 {
		t.Error("empty histogram reads 0")
	}
	empty.add(0) // clamps instead of indexing out of range
}

func TestNamesAndCounts(t *testing.T) {
	re := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	check := func(name string) {
		t.Helper()
		if !re.MatchString(name) || len(name) > 64 {
			t.Errorf("malformed name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadDefs {
		check(w.Name)
	}
	for _, m := range endToEndDefs {
		check(m.Name)
	}
	for _, m := range perLayerDefs {
		check(m.Name)
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(endToEndDefs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayerDefs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if err := benchmarkSpec().validate(); err != nil {
		t.Error(err)
	}
}

func TestValidateRejects(t *testing.T) {
	mutate := []func(*benchmarkFile){
		func(f *benchmarkFile) { f.EndToEnd[1].Bound = 0.3 },
		func(f *benchmarkFile) { f.EndToEnd[0].Name = "setup" },
		func(f *benchmarkFile) { f.PerLayer[0].Unit = "milli seconds" },
		func(f *benchmarkFile) { f.PerLayer[1].Name = f.PerLayer[0].Name },
		func(f *benchmarkFile) { f.Workloads = f.Workloads[:1] },
		func(f *benchmarkFile) { f.Workloads[0].Why = strings.Repeat("x", 201) },
		func(f *benchmarkFile) { f.RunSeconds = 61 },
		func(f *benchmarkFile) { f.EndToEnd[2].Better = "faster" },
	}
	for i, mut := range mutate {
		f := benchmarkSpec()
		f.Workloads = append([]workloadDef(nil), f.Workloads...)
		mut(&f)
		if f.validate() == nil {
			t.Errorf("mutation %d passed validation", i)
		}
	}
}

// BENCHMARK.json is rendered from the tables in defs.go; this keeps the
// checked-in copy, the emitter's structs and the tables the same thing.
func TestBenchmarkJSONRoundTrip(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if err := got.validate(); err != nil {
		t.Error(err)
	}
	want := benchmarkSpec()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in defs.go; regenerate it with -print-spec")
	}
	again, err := got.marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, raw) {
		t.Error("BENCHMARK.json does not round-trip byte for byte through the emitter")
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(top))
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("top-level keys %v, want %v", keys, want)
	}
}

// specsOf sets a smoke-size workload up and returns what it generated.
func specsOf(t *testing.T, name string, seed int64) any {
	t.Helper()
	w, err := newWorkload(name, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(seed); err != nil {
		t.Fatal(err)
	}
	switch w := w.(type) {
	case *simWorkload:
		return w.specs
	case *finWorkload:
		return w.specs
	case *svcWorkload:
		specs := make([]bench.RunSpec, w.size.chunk)
		for i := range specs {
			specs[i] = w.scenario().Spec(w.chunkSeed(0), i)
		}
		return specs
	}
	t.Fatalf("unknown workload type %T", w)
	return nil
}

func TestSpecGenerationIsAFunctionOfTheSeed(t *testing.T) {
	restore := quietLogs()
	defer restore()
	for _, w := range workloadDefs {
		a, b, c := specsOf(t, w.Name, 7), specsOf(t, w.Name, 7), specsOf(t, w.Name, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed generated different specs", w.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds generated the same specs", w.Name)
		}
	}
}

func quietLogs() func() {
	prev := log.Writer()
	log.SetOutput(io.Discard)
	return func() { log.SetOutput(prev) }
}

func TestCheckRun(t *testing.T) {
	spec := bench.RunSpec{
		Protocol: bench.ProtoFIN, N: 4, F: 1,
		Inputs: []float64{10, 12, 11, 11.5},
		Delphi: bench.OracleDefaultParams(),
	}
	eps := spec.Delphi.Eps
	ok := &bench.RunStats{Outputs: []float64{11, 11, 11, 11}}
	if err := checkRun(spec, ok); err != nil {
		t.Errorf("valid run rejected: %v", err)
	}
	bad := []*bench.RunStats{
		{Outputs: []float64{11, 11, 11}},
		{Outputs: []float64{11, 11, 11, 11}, Spread: eps * 2},
		{Outputs: []float64{11, 11, 11, 12.5}},
		{Outputs: []float64{11, 11, 11, math.NaN()}},
		{Outputs: []float64{11, 11, 11, 11}, TransportDrops: 1},
	}
	for i, st := range bad {
		if checkRun(spec, st) == nil {
			t.Errorf("violation %d accepted", i)
		}
	}
	// Delphi may land max(rho0, delta) outside the hull; FIN may not.
	relaxed := &bench.RunStats{Outputs: []float64{12.5, 12.5, 12.5, 12.5}}
	spec.Protocol = bench.ProtoDelphi
	if err := checkRun(spec, relaxed); err != nil {
		t.Errorf("Delphi's relaxed validity rejected: %v", err)
	}
	far := &bench.RunStats{Outputs: []float64{20, 20, 20, 20}}
	if checkRun(spec, far) == nil {
		t.Error("output far outside the relaxed hull accepted")
	}
}

func TestCheckService(t *testing.T) {
	good := bench.ServiceReport{Arrived: 10, Decided: 10, DeliveredUpdates: 38, SubDropped: 2}
	if err := checkService(&good, 10, 4); err != nil {
		t.Errorf("consistent report rejected: %v", err)
	}
	for i, mut := range []func(*bench.ServiceReport){
		func(r *bench.ServiceReport) { r.Decided = 9 },
		func(r *bench.ServiceReport) { r.Decided, r.Shed = 9, 1 },
		func(r *bench.ServiceReport) { r.Decided, r.Failed = 9, 1 },
		func(r *bench.ServiceReport) { r.DeliveredUpdates = 30 },
		func(r *bench.ServiceReport) { r.TransportDrops = 3 },
		func(r *bench.ServiceReport) { r.Arrived, r.Decided = 9, 9 },
	} {
		r := good
		mut(&r)
		if checkService(&r, 10, 4) == nil {
			t.Errorf("inconsistent report %d accepted", i)
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	cases := []struct{ in, want []string }{
		{[]string{"--workload", "x", "--seed", "3", "--seconds", "15", "--trace", "0"}, []string{"--workload", "x", "--seed", "3", "--seconds", "15", "-trace=0"}},
		{[]string{"--trace", "1", "--seed", "3"}, []string{"-trace=1", "--seed", "3"}},
		{[]string{"-trace"}, []string{"-trace"}},
		{[]string{"-trace", "-smoke"}, []string{"-trace", "-smoke"}},
	}
	for _, c := range cases {
		if got := normalizeArgs(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("normalizeArgs(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 50, End: 70},
		{ID: 3, Parent: 1, Start: 10, End: 50, Calls: 4}, // concurrent children can outlast the parent
	}
	if got, want := selfTimes(spans), []int64{50, 0, 20, 40}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestLogCaptureCountsAndRestores(t *testing.T) {
	var sink bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&sink)
	defer log.SetOutput(prev)
	c, restore := captureLogs()
	log.Printf("node 3: drop unauthentic frame from 5: auth: MAC verification failed")
	log.Printf("something else")
	restore()
	log.Printf("after")
	if lines, stale := c.counts(); lines != 2 || stale != 1 {
		t.Errorf("counted %d lines, %d stale-epoch, want 2 and 1", lines, stale)
	}
	if got := sink.String(); !strings.Contains(got, "after") || strings.Contains(got, "something else") {
		t.Errorf("previous writer saw %q", got)
	}
}

func TestNoisyHost(t *testing.T) {
	if noisyHost(100, 104) || !noisyHost(100, 106) || !noisyHost(106, 100) {
		t.Error("the sentinel trips at a 5% difference, whichever spin is slower")
	}
}

// lastLine runs perf with args and decodes the result it printed last.
func lastLine(t *testing.T, args ...string) result {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("perf %v exited %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &top); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	if len(top) != 4 {
		t.Errorf("result has keys %v, want exactly correct, attempted, failed, metrics", top)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

func metricNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	sort.Strings(names)
	return names
}

func resultNames(r result) []string {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// The driver's invocation, at smoke size: every workload prints exactly the
// end-to-end metrics untraced and exactly the per-layer metrics traced.
func TestResultLineCarriesEveryMetric(t *testing.T) {
	for _, w := range workloadDefs {
		out := t.TempDir()
		res := lastLine(t, "--workload", w.Name, "--seed", "5", "--seconds", "1", "--trace", "0", "-smoke", "-out", out)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: %+v", w.Name, res)
		}
		if got, want := resultNames(res), metricNames(endToEndDefs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s untraced metrics %v, want %v", w.Name, got, want)
		}
		for name, v := range res.Metrics {
			if !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %g, want a positive number", w.Name, name, v.Value)
			}
		}
		res = lastLine(t, "--workload", w.Name, "--seed", "5", "--seconds", "1", "--trace", "1", "-smoke", "-out", out)
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: %+v", w.Name, res)
		}
		if got, want := resultNames(res), metricNames(perLayerDefs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s traced metrics %v, want %v", w.Name, got, want)
		}
		for name, v := range res.Metrics {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %g", w.Name, name, v.Value)
			}
		}
		if _, err := os.Stat(out + "/trace-" + w.Name + ".json"); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
	}
}

// The exact metrics repeat for a seed and move with it.
func TestExactMetricsFollowTheSeed(t *testing.T) {
	for _, name := range []string{"sim-delphi", "sim-scale-seq", "sim-scale-par"} {
		read := func(seed string) (float64, float64) {
			r := lastLine(t, "-workload", name, "-seed", seed, "-smoke", "-out", t.TempDir())
			return r.Metrics["virtual_latency_ms"].Value, r.Metrics["wire_kb_per_op"].Value
		}
		lat1, wire1 := read("11")
		lat2, wire2 := read("11")
		lat3, _ := read("12")
		if lat1 != lat2 || wire1 != wire2 {
			t.Errorf("%s: same seed read %g/%g then %g/%g", name, lat1, wire1, lat2, wire2)
		}
		if lat1 == lat3 {
			t.Errorf("%s: seeds 11 and 12 read the same virtual latency %g", name, lat1)
		}
	}
}

func TestSmokeRunsAllFiveQuickly(t *testing.T) {
	start := time.Now()
	var out, errb bytes.Buffer
	if code := run([]string{"-smoke", "-out", t.TempDir()}, &out, &errb); code != 0 {
		t.Fatalf("smoke exited %d: %s", code, errb.String())
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("smoke took %v, want under 10 s", d)
	}
	for _, w := range workloadDefs {
		if !strings.Contains(out.String(), "== "+w.Name+" ") {
			t.Errorf("smoke did not run %s", w.Name)
		}
	}
	if n := strings.Count(out.String(), "fail_frac=0 "); n != len(workloadDefs) {
		t.Errorf("%d of %d workloads reported fail_frac=0", n, len(workloadDefs))
	}
}

func TestUnknownWorkloadPrintsNoResult(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errb); code == 0 {
		t.Error("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Errorf("unknown workload printed %q", out.String())
	}
}
