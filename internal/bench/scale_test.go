package bench_test

import (
	"reflect"
	"testing"

	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// TestScaleSweepSequentialLane pins the benchmark's two simulator lanes to
// one result: a bare Run with SimWorkers 0 (the sim-scale-seq lane, one
// shard), a 2-worker Run (sim-scale-par) and a 2-core engine, which shards a
// one-spec batch at n=1000 over both cores, in the same process. The worker
// count moves wall time only. The spec is the simulator's n=1000 Dolev scale
// point.
func TestScaleSweepSequentialLane(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test")
	}
	spec := bench.Scenario{
		Protocol: run.ProtoDolev, N: 1000, Env: sim.AWS(),
		Params: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 8, Eps: 2},
		Center: 41000, Delta: 8,
	}.Spec(1, 0)
	lane0, err := run.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	viaEngine, err := (&bench.Engine{Workers: 2}).RunBatch([]run.RunSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	par := spec
	par.SimWorkers = 2
	lane2, err := run.Run(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lane0, lane2) {
		t.Errorf("workers-0 run differs from the 2-worker run: %v vs %v", lane0.Latency, lane2.Latency)
	}
	if !reflect.DeepEqual(viaEngine[0], lane2) {
		t.Errorf("2-core engine run differs from a 2-worker Run: %v vs %v", viaEngine[0].Latency, lane2.Latency)
	}
}
