package main

import (
	"delphi/internal/bench"
	"delphi/internal/obs"
)

// extras are the traced pass's measurements that neither the tracer nor a
// measured window holds.
type extras struct {
	heapPeakMiB    float64
	goroutinesPeak int
	staleLogs      int64
	parSpeedup     float64
	cellSetupMS    float64
	open           *bench.ServiceReport
	publishNS      float64
	prices         prices
}

// countEvents counts the recorder's trace events of one name.
func countEvents(rec *obs.Recorder, name string) int64 {
	var n int64
	for _, t := range rec.Tracks() {
		for _, e := range t.Events() {
			if e.Name == name {
				n++
			}
		}
	}
	return n
}

// ledger turns the traced pass into the per-layer metrics. ref is the
// untraced reference segment, m the traced one. A metric that does not
// apply to the workload (a transport figure on the simulator, a BinAA
// figure on FIN) reads 0.
func ledger(tr *tracer, ref, m *measured, win window, x extras) map[string]float64 {
	out := make(map[string]float64, len(perLayerDefs))
	ops := float64(tr.ops)
	perOp := func(v int64) float64 { return float64(v) / ops }
	msPerOp := func(ns int64) float64 { return float64(ns) / 1e6 / ops }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	snap := tr.rec.Snapshot()

	// Protocol step, split by the wire type that entered it.
	echo1, echo2 := tr.stepTotals("binaa.echo1"), tr.stepTotals("binaa.echo2")
	binaa := tr.stepTotals("binaa.echo1", "binaa.echo2")
	rbc, aba, coin := tr.stepTotals("rbc"), tr.stepTotals("aba"), tr.stepTotals("coin")
	fin := tr.stepTotals("rbc", "aba", "coin", "acs")
	aaa := tr.stepTotals("aaa")
	var steps stepAcc
	for t := range tr.step {
		steps.add(&tr.step[t])
	}
	if binaa.calls > 0 {
		out["core.new_ms_per_op"] = msPerOp(tr.newNS)
		out["core.init_ms_per_op"] = msPerOp(tr.init)
		out["core.step_calls_per_op"] = perOp(binaa.calls)
		out["core.step_busy_ms_per_op"] = msPerOp(binaa.busy)
		out["core.step_p50_us"] = tr.hist.percentile(0.50) / 1e3
		out["core.step_p99_us"] = tr.hist.percentile(0.99) / 1e3
		out["binaa.echo1_calls_per_op"] = perOp(echo1.calls)
		out["binaa.echo1_busy_ms_per_op"] = msPerOp(echo1.busy)
		out["binaa.echo2_calls_per_op"] = perOp(echo2.calls)
		out["binaa.echo2_busy_ms_per_op"] = msPerOp(echo2.busy)
		out["binaa.bytes_per_msg"] = ratio(float64(binaa.sizedBytes), float64(binaa.sized))
		rounds := tr.binaaRounds + countEvents(tr.rec, "binaa.round")
		out["binaa.rounds_per_op"] = ratio(float64(rounds), ops*float64(tr.honest))
	}
	out["acs.step_calls_per_op"] = perOp(fin.calls)
	out["acs.step_busy_ms_per_op"] = msPerOp(fin.busy)
	out["rbc.busy_ms_per_op"] = msPerOp(rbc.busy)
	out["aba.busy_ms_per_op"] = msPerOp(aba.busy)
	out["coin.busy_ms_per_op"] = msPerOp(coin.busy)
	out["aaa.step_calls_per_op"] = perOp(aaa.calls)
	out["aaa.step_busy_ms_per_op"] = msPerOp(aaa.busy)

	cpuPerOp := ms(win.CPU) / ops
	attributed := msPerOp(tr.newNS + tr.init + steps.busy)

	if tr.events > 0 {
		// Simulator: everything in Run that is not a protocol step is the
		// simulator's own — queue, cost model, bookkeeping. Under the
		// parallel executor wall time hides the second worker, so the basis
		// is the run's CPU.
		basis := tr.simRun
		if tr.windows > 0 {
			basis = tr.simRunCPU
		}
		self := basis - steps.busy - tr.init
		out["sim.events_per_op"] = perOp(tr.events)
		out["sim.new_runner_ms_per_op"] = msPerOp(tr.newRunner)
		out["sim.self_ns_per_event"] = ratio(float64(self), float64(tr.events))
		out["sim.allocs_per_event"] = ratio(float64(tr.simMallocs), float64(tr.events))
		out["sim.windows_per_op"] = perOp(tr.windows)
		out["sim.par_speedup"] = x.parSpeedup
		attributed += msPerOp(tr.newRunner + self)
	}

	if l := &tr.link; l.sendCalls > 0 {
		p := x.prices
		out["runtime.send_calls_per_op"] = perOp(l.sendCalls)
		out["runtime.send_busy_ms_per_op"] = msPerOp(l.sendBusy)
		out["runtime.send_p99_us"] = l.sendHist.percentile(0.99) / 1e3
		out["runtime.send_kb_per_op"] = float64(l.sendBytes) / 1024 / ops
		out["runtime.recv_calls_per_op"] = perOp(l.recvCalls)
		out["runtime.recv_wait_ms_per_op"] = msPerOp(l.recvWait)
		out["runtime.frames_per_flush"] = ratio(float64(snap.Value("driver.flush_frames")), float64(snap.Value("driver.flushes")))
		out["runtime.inbox_high_water"] = float64(snap.Value("transport.inbox_high_water"))
		out["runtime.drops_per_op"] = perOp(snap.Value("transport.drops"))
		out["runtime.mux_stale_frames_per_op"] = perOp(snap.Value("mux.stale_frames"))
		out["runtime.dials_per_op"] = perOp(countEvents(tr.rec, "tcp.dial"))
		out["runtime.stale_epoch_logs_per_op"] = perOp(x.staleLogs)
		out["runtime.unpack_ns_per_frame"] = p.unpackNS
		out["runtime.read_ns_per_frame"] = p.readNS
		out["wire.encode_ns_per_msg"] = p.encodeNS
		out["wire.decode_ns_per_msg"] = p.decodeNS
		out["auth.seal_ns_per_frame"] = p.sealNS
		out["auth.open_ns_per_frame"] = p.openNS
		// Encoding happens inside the step (Env.Send) and sealing inside the
		// transport's Send, so both are already inside a measured span; the
		// receive side — the transport's read, then open, unpack and decode
		// in the driver between Recv and Deliver — is attributed by
		// count × price.
		encode := float64(l.msgs) * p.encodeNS
		decode := float64(steps.calls) * p.decodeNS
		seal := float64(l.sendCalls) * p.sealNS
		open := float64(l.recvCalls) * p.openNS
		unpack := float64(l.recvCalls) * p.unpackNS
		read := float64(l.recvCalls) * p.readNS
		out["wire.busy_ms_per_op"] = (encode + decode) / 1e6 / ops
		out["auth.busy_ms_per_op"] = (seal + open) / 1e6 / ops
		attributed += msPerOp(l.sendBusy) + (read+decode+open+unpack)/1e6/ops + ms(win.GCCPU)/ops
		out["runtime.other_cpu_ms_per_op"] = cpuPerOp - attributed
	}

	out["backend.cell_setup_ms"] = x.cellSetupMS
	if ref.batchWall > 0 {
		out["backend.trial_overhead_ms"] = ms(ref.batchWall-ref.trialWall) / float64(ref.ops())
	}
	out["backend.timeouts"] = float64(ref.timeouts + m.timeouts)

	_, used := tailPercentile(ref.opMS, 0.95)
	if used == 0.95 {
		out["bench.op_p95_ms"] = quantile(ref.opMS, 0.95)
	}
	if ref.serviceMS > 0 {
		out["bench.svc_slot_idle_ms_per_round"] = (2*ms(ref.busy) - ref.serviceMS) / float64(ref.ops())
		out["bench.svc_max_inflight"] = float64(ref.maxInflight)
		out["bench.svc_shed"] = float64(ref.shed)
		out["bench.svc_failed"] = float64(ref.lost)
		out["feeds.fanout_transit_us"] = mean(ref.staleMeanMS) * 1e3
		out["feeds.delivered_per_round"] = float64(ref.delivered) / float64(ref.ops())
		out["feeds.sub_dropped"] = float64(ref.subDropped)
		out["feeds.publish_ns"] = x.publishNS
	}
	if rep := x.open; rep != nil {
		out["bench.open_latency_p50_ms"] = rep.LatencyMS.Percentile(0.50)
		out["bench.open_latency_p99_ms"], _ = tailPercentile(rep.LatencyMS.Samples, 0.99)
		out["bench.open_staleness_p99_ms"], _ = tailPercentile(rep.StalenessMS.Samples, 0.99)
	}

	out["go.gc_cpu_frac"] = ratio(float64(win.GCCPU), float64(win.CPU))
	out["go.gc_cycles_per_op"] = float64(win.GCCycles) / ops
	out["go.heap_inuse_peak_mb"] = x.heapPeakMiB
	out["go.goroutines_peak"] = float64(x.goroutinesPeak)

	refPerOp := ref.busy.Seconds() / float64(ref.ops())
	tracedPerOp := m.busy.Seconds() / float64(m.ops())
	out["trace.overhead_frac"] = tracedPerOp/refPerOp - 1
	out["ledger.unattributed_frac"] = 1 - attributed/cpuPerOp
	return out
}
