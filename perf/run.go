package main

import (
	"fmt"
	"runtime"
	"time"

	"delphi/internal/bench"
)

// runConfig is one workload run's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints: exactly the keys the
// benchmark contract names.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is everything else a run's report prints.
type detail struct {
	Workload   string
	Seed       int64
	Trace      bool
	Seconds    float64
	Host       hostFacts
	SpinBefore float64
	SpinAfter  float64
	Noisy      bool
	Ops        int
	FailFrac   float64
	Failures   []string
	OpP25      float64 // raw quartiles of the op times
	OpP75      float64
	RawOpP50   float64
	KernelMS   float64 // the window's host gauge
	SetupS     []float64
	WindowS    float64
	LogLines   int64
	TraceFile  string
	Result     result
}

// setupReps is how many times a run sets the workload up; setup_s is the
// median, so one slow bind or a cold page cache does not decide it.
const setupReps = 3

// runWorkload executes one workload once, untraced or traced.
func runWorkload(cfg runConfig) (*detail, error) {
	if _, ok := findWorkload(cfg.workload); !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	host := pinProcs()
	logs, restore := captureLogs()
	defer restore()
	d := &detail{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds, Host: host}
	var (
		metrics map[string]float64
		m       *measured
		err     error
	)
	if cfg.trace {
		metrics, m, err = runTraced(cfg, d, logs)
	} else {
		metrics, m, err = runUntraced(cfg, d)
	}
	if err != nil {
		return nil, err
	}
	d.SpinBefore, d.SpinAfter = m.gauge.ends()
	d.Noisy = noisyHost(d.SpinBefore, d.SpinAfter)
	d.LogLines, _ = logs.counts()
	if cfg.trace {
		metrics["host.spin_ms_before"] = d.SpinBefore
		metrics["host.spin_ms_after"] = d.SpinAfter
		metrics["host.kernel_ms"] = d.KernelMS
	}

	d.Ops = m.ops()
	d.Failures = m.failures
	d.FailFrac = float64(m.failed) / float64(m.attempted)
	d.OpP25, _, d.OpP75 = quartiles(m.opMS)
	defs := endToEndDefs
	if cfg.trace {
		defs = perLayerDefs
	}
	d.Result = result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, def := range defs {
		d.Result.Metrics[def.Name] = metricValue{Value: metrics[def.Name], Unit: def.Unit}
	}
	return d, nil
}

// measure runs the workload's loop between a meter's two reads.
func measure(w workload, seconds float64, minCycle bool) (*measured, window) {
	m := &measured{}
	runtime.GC()
	mt := startMeter()
	w.run(time.Now().Add(time.Duration(seconds*float64(time.Second))), minCycle, m)
	win := mt.stop()
	win.Wall -= m.gauge.spent
	win.CPU -= m.gauge.cpu
	return m, win
}

func runUntraced(cfg runConfig, d *detail) (map[string]float64, *measured, error) {
	w, err := newWorkload(cfg.workload, cfg.smoke)
	if err != nil {
		return nil, nil, err
	}
	reps := setupReps
	if cfg.smoke {
		reps = 1
	}
	var setupGauge hostGauge
	for r := 0; r < reps; r++ {
		t := time.Now()
		if err := w.setup(cfg.seed); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		d.SetupS = append(d.SetupS, time.Since(t).Seconds())
		setupGauge.sample()
		setupGauge.sample()
	}
	m, win := measure(w, cfg.seconds, true)
	d.WindowS = win.Wall.Seconds()
	if m.ops() == 0 {
		return nil, nil, fmt.Errorf("no op completed: %v", m.failures)
	}
	if err := w.audit(m); err != nil {
		m.attempted++
		m.fail(-1, cfg.seed, fmt.Errorf("audit: %w", err))
	}
	// Timings are reported at the reference host's speed (see hostGauge);
	// counts and the simulator's virtual time need no such correction.
	ops := float64(m.ops())
	f := m.gauge.factor()
	d.KernelMS, d.RawOpP50 = median(m.gauge.samples), median(m.opMS)
	return map[string]float64{
		"setup_s":            median(d.SetupS) * setupGauge.factor(),
		"op_p50_ms":          median(m.opMS) * f,
		"ops_per_s":          ops / m.busy.Seconds() / f,
		"cpu_ms_per_op":      ms(win.CPU) / ops * f,
		"allocs_per_op":      float64(win.Mallocs) / ops,
		"alloc_kb_per_op":    float64(win.Bytes) / 1024 / ops,
		"peak_rss_mb":        peakRSSMiB(),
		"ns_per_event":       float64(m.busy) / float64(m.msgs) * f,
		"virtual_latency_ms": median(m.virtualMS),
		"wire_kb_per_op":     mean(m.wireBytes) / 1024,
	}, m, nil
}

// The traced pass splits its seconds: an untraced reference segment (what
// trace.overhead_frac compares against, and where the wall-clock
// diagnostics come from), the traced segment, and on svc-tcp an open-loop
// phase.
const (
	refShare    = 0.35
	tracedShare = 0.40
	openShare   = 0.25
	// openRate is the open-loop phase's arrival rate: about half of what the
	// service sustains on the reference host, so queues form only when the
	// host stalls.
	openRate = 20.0
)

func runTraced(cfg runConfig, d *detail, logs *logCounter) (map[string]float64, *measured, error) {
	ref, err := newWorkload(cfg.workload, cfg.smoke)
	if err != nil {
		return nil, nil, err
	}
	if err := ref.setup(cfg.seed); err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	refM, _ := measure(ref, cfg.seconds*refShare, false)
	if refM.ops() == 0 {
		return nil, nil, fmt.Errorf("no reference op completed: %v", refM.failures)
	}

	tr := newTracer()
	useTracedBackend(tr)
	w := ref.traced(tr)
	_, staleBefore := logs.counts()
	peaks := startPeakSampler()
	m, win := measure(w, cfg.seconds*tracedShare, false)
	heapMiB, goroutines := peaks.stop()
	_, staleAfter := logs.counts()
	d.WindowS = win.Wall.Seconds()
	d.KernelMS, d.RawOpP50 = median(m.gauge.samples), median(m.opMS)
	if m.ops() == 0 || tr.ops == 0 {
		return nil, nil, fmt.Errorf("no traced op completed: %v", m.failures)
	}

	x := extras{
		heapPeakMiB:    heapMiB,
		goroutinesPeak: goroutines,
		staleLogs:      staleAfter - staleBefore,
	}
	switch wl := ref.(type) {
	case *simWorkload:
		if wl.workers > 0 {
			// One op of the same spec on the sequential executor.
			seq := wl.specs[0]
			seq.SimWorkers = 0
			t := time.Now()
			if _, err := bench.Run(seq); err != nil {
				return nil, nil, err
			}
			x.parSpeedup = ms(time.Since(t)) / median(refM.opMS)
		}
	case *finWorkload:
		// A one-trial batch pays the whole cell set-up for one trial.
		one := wl.cycle(0, 1)
		t := time.Now()
		sts, err := (&bench.Engine{Workers: 1}).RunBatch(one)
		if err != nil {
			return nil, nil, err
		}
		x.cellSetupMS = ms(time.Since(t) - sts[0].Wall)
	case *svcWorkload:
		open := wl.config(int(openRate * cfg.seconds * openShare))
		open.Rate = openRate
		if cfg.smoke {
			open = wl.config(wl.size.chunk)
			open.Rate = 1000
		}
		rep, err := bench.NewEngine(1).RunService(open, bench.TrialSeed(cfg.seed, 1<<20))
		if err != nil {
			return nil, nil, err
		}
		if err := checkService(rep, open.Rounds, svcRepresentatives); err != nil {
			m.attempted += open.Rounds
			m.fail(-1, cfg.seed, fmt.Errorf("open loop: %w", err))
		}
		x.open = rep
		x.publishNS = publishNS()
	}
	if x.prices, err = price(tr.link.frames); err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}

	metrics := ledger(tr, refM, m, win, x)
	if d.TraceFile, err = tr.write(cfg.outDir, cfg.workload, cfg.seed, d.Host); err != nil {
		return nil, nil, err
	}
	// The reference segment's ops were checked too.
	m.attempted += refM.attempted
	m.failed += refM.failed
	m.failures = append(m.failures, refM.failures...)
	return metrics, m, nil
}
