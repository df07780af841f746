package main

import (
	"fmt"
	"runtime"
	"time"

	"delphi/internal/bench"
	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/sim"
)

// simOp is bench.Run rebuilt from the pieces bench.Run is made of —
// RunSpec.Processes, sim.NewRunner, RunSpec.StatsFromOutputs — with the
// process decorator interposed and a span around each piece. A per-op
// obs.Recorder rides on the simulator's public option to read what the
// program already counts (executor windows, BinAA rounds).
func (tr *tracer) simOp(spec bench.RunSpec) (*bench.RunStats, error) {
	ot := tr.beginOp(spec.N)
	t := tr.now()
	procs, err := spec.Processes()
	if err != nil {
		return nil, err
	}
	ot.newNS = tr.now() - t
	ot.add(0, "proc.new", t, t+ot.newNS, 0)
	ot.wrapProcs(procs)

	rec := obs.New()
	opts := []sim.Option{sim.WithMaxTime(4 * time.Hour), sim.WithRecorder(rec)}
	if spec.SimWorkers > 0 {
		opts = append(opts, sim.WithParallelWindow(spec.SimWorkers))
	}
	t = tr.now()
	runner, err := sim.NewRunner(node.Config{N: spec.N, F: spec.F}, spec.Env, spec.Seed, procs, opts...)
	if err != nil {
		return nil, err
	}
	newRunner := tr.now() - t
	ot.add(0, "sim.new_runner", t, t+newRunner, 0)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := cpuTime()
	t = tr.now()
	res := runner.Run()
	runNS := tr.now() - t
	runCPU := int64(cpuTime() - cpu)
	runtime.ReadMemStats(&after)
	run := ot.add(0, "sim.run", t, t+runNS, 0)

	finals := make([]any, spec.N)
	at := make([]time.Duration, spec.N)
	for _, i := range spec.HonestSlots() {
		st := res.Stats[i]
		if len(st.Output) == 0 {
			return nil, fmt.Errorf("%s node %d produced no output (vtime=%v)", spec.Protocol, i, res.Time)
		}
		finals[i] = st.Output[len(st.Output)-1]
		at[i] = st.OutputAt
	}
	stats, err := spec.StatsFromOutputs(finals, at)
	if err != nil {
		return nil, err
	}
	stats.TotalBytes = res.TotalBytes
	stats.TotalMsgs = res.TotalMsgs

	var windows, rounds int64
	for _, track := range rec.Tracks() {
		for _, e := range track.Events() {
			switch e.Name {
			case "sim.window":
				windows++
			case "binaa.round":
				rounds++
			}
		}
	}
	ot.finish(run)
	tr.mu.Lock()
	tr.newRunner += newRunner
	tr.simRun += runNS
	tr.simRunCPU += runCPU
	tr.events += int64(res.Events)
	tr.simMallocs += int64(after.Mallocs - before.Mallocs)
	tr.windows += windows
	tr.binaaRounds += rounds
	tr.honest = len(spec.HonestSlots())
	tr.mu.Unlock()
	return stats, nil
}
