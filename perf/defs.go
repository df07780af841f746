package main

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// This file is the benchmark's vocabulary: the workload names, the metric
// names with their units, directions and regression bounds, and the
// BENCHMARK.json they serialise to. `perf -print-spec` renders the file from
// these tables, so BENCHMARK.json at the repository root cannot drift from
// what the program reports.

// runSeconds is how long one run measures (BENCHMARK.json run_seconds). With
// five workloads the acceptance procedure makes 114 runs, so set-up plus
// window plus audit has to stay under ~28 s per run on the reference host.
const runSeconds = 15

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef is one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may get worse (0 for per-layer
// metrics, which are not gated).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

var workloadDefs = []workloadDef{
	{"sim-delphi", "Delphi n=40 on the simulator (paper Fig. 6 setup): ~86% of host time is the core/binaa step, ~3% the simulator, none transport"},
	{"sim-scale-seq", "Dolev n=1000, 2M events per op on the sequential executor: the 4-ary heap, cost model and endStep carry the run, the protocol step is light"},
	{"sim-scale-par", "the same specs on the sharded calendar-ring executor with 2 workers: a change that speeds one executor at the other's cost shows here or in sim-scale-seq"},
	{"tcp-fin", "FIN n=16 trials on persistent loopback-tcp sessions: ~25k small frames per op, so runtime/wire/auth carry ~85% of CPU and binaa none"},
	{"svc-tcp", "continuous Delphi oracle service n=8 over tcp, two rounds always in flight, wide inputs: InstanceMux demux, per-round keys, concurrent instances, feeds.Fanout"},
}

// The bounds follow the A/A runs recorded in README.md. Timings are reported
// at the reference host's speed (see hostGauge) and still spread 3–13 % of
// their median from run to run on a shared 2-core host, so they carry the
// widest bound the benchmark contract allows; counts repeat to well under a
// percent and carry bounds a real change cannot hide in.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.15},
	{"ns_per_event", "ns", "lower", 0.25},
	{"virtual_latency_ms", "ms", "lower", 0.03},
	{"wire_kb_per_op", "KiB", "lower", 0.10},
}

var perLayerDefs = []metricDef{
	{Name: "core.new_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "core.init_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "core.step_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "core.step_busy_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "core.step_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.step_p99_us", Unit: "us", Better: "lower"},
	{Name: "binaa.echo1_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "binaa.echo1_busy_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "binaa.echo2_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "binaa.echo2_busy_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "binaa.bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "binaa.rounds_per_op", Unit: "count", Better: "lower"},
	{Name: "acs.step_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "acs.step_busy_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "rbc.busy_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "aba.busy_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "coin.busy_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "aaa.step_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "aaa.step_busy_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "sim.events_per_op", Unit: "count", Better: "lower"},
	{Name: "sim.new_runner_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "sim.self_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "sim.windows_per_op", Unit: "count", Better: "lower"},
	{Name: "sim.par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "runtime.send_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.send_busy_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "runtime.send_p99_us", Unit: "us", Better: "lower"},
	{Name: "runtime.send_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "runtime.recv_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.recv_wait_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "runtime.frames_per_flush", Unit: "ratio", Better: "higher"},
	{Name: "runtime.inbox_high_water", Unit: "count", Better: "lower"},
	{Name: "runtime.drops_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.mux_stale_frames_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.dials_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.stale_epoch_logs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.unpack_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "runtime.read_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "runtime.other_cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "wire.encode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.busy_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "auth.seal_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "auth.open_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "auth.busy_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "backend.cell_setup_ms", Unit: "ms", Better: "lower"},
	{Name: "backend.trial_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "backend.timeouts", Unit: "count", Better: "lower"},
	{Name: "bench.op_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.svc_slot_idle_ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "bench.svc_max_inflight", Unit: "count", Better: "higher"},
	{Name: "bench.svc_shed", Unit: "count", Better: "lower"},
	{Name: "bench.svc_failed", Unit: "count", Better: "lower"},
	{Name: "bench.open_latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.open_latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.open_staleness_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "feeds.fanout_transit_us", Unit: "us", Better: "lower"},
	{Name: "feeds.delivered_per_round", Unit: "count", Better: "higher"},
	{Name: "feeds.sub_dropped", Unit: "count", Better: "lower"},
	{Name: "feeds.publish_ns", Unit: "ns", Better: "lower"},
	{Name: "go.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "go.gc_cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "go.heap_inuse_peak_mb", Unit: "MiB", Better: "lower"},
	{Name: "go.goroutines_peak", Unit: "count", Better: "lower"},
	{Name: "host.spin_ms_before", Unit: "ms", Better: "lower"},
	{Name: "host.spin_ms_after", Unit: "ms", Better: "lower"},
	{Name: "host.kernel_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "ledger.unattributed_frac", Unit: "ratio", Better: "lower"},
}

// benchmarkFile mirrors BENCHMARK.json key for key.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []e2eEntry    `json:"end_to_end"`
	PerLayer   []layerEntry  `json:"per_layer"`
}

type e2eEntry struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkSpec assembles BENCHMARK.json from the tables above.
func benchmarkSpec() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "perf/run.sh"},
		Paths:      []string{"perf"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, m := range endToEndDefs {
		f.EndToEnd = append(f.EndToEnd, e2eEntry{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayerDefs {
		f.PerLayer = append(f.PerLayer, layerEntry{m.Name, m.Unit, m.Better})
	}
	return f
}

func (f benchmarkFile) marshal() ([]byte, error) {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate checks the limits the benchmark contract puts on the file.
func (f benchmarkFile) validate() error {
	if n := len(f.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(kind, s string) error {
		if !nameRE.MatchString(s) {
			return fmt.Errorf("%s name %q is malformed", kind, s)
		}
		if seen[s] {
			return fmt.Errorf("name %q used twice", s)
		}
		seen[s] = true
		return nil
	}
	metric := func(kind, n, unit, better string) error {
		if err := name(kind, n); err != nil {
			return err
		}
		if !unitRE.MatchString(unit) {
			return fmt.Errorf("%s: unit %q is malformed", n, unit)
		}
		if better != "lower" && better != "higher" {
			return fmt.Errorf("%s: better=%q", n, better)
		}
		return nil
	}
	for _, w := range f.Workloads {
		if err := name("workload", w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range f.EndToEnd {
		if err := metric("end-to-end", m.Name, m.Unit, m.Better); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		return fmt.Errorf("no setup_s metric in seconds, lower is better")
	}
	for _, m := range f.PerLayer {
		if err := metric("per-layer", m.Name, m.Unit, m.Better); err != nil {
			return err
		}
	}
	return nil
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
