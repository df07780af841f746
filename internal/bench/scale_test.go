package bench_test

import (
	"reflect"
	"strings"
	"testing"

	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/sim"
)

func TestScaleSweepQuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test")
	}
	rep, err := bench.ScaleSweep(bench.Quick, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("cells = %d, want 2 (n=1000 × workers {0, 4})", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.N != 1000 {
			t.Fatalf("cell n = %d, want 1000", c.N)
		}
		if c.Wall <= 0 {
			t.Fatalf("cell %q measured no wall time", c.Name)
		}
		if c.TotalMsgs == 0 {
			t.Fatalf("cell %q recorded no messages", c.Name)
		}
	}
	if rep.Cells[0].Workers != 0 || rep.Cells[1].Workers != 4 {
		t.Fatalf("worker axis = (%d, %d), want (0, 4)", rep.Cells[0].Workers, rep.Cells[1].Workers)
	}
	// Both lanes run the same spec, so the protocol outputs must match
	// message-for-message even though wall times differ.
	if rep.Cells[0].TotalMsgs != rep.Cells[1].TotalMsgs {
		t.Fatalf("lanes disagree on message count: %d vs %d",
			rep.Cells[0].TotalMsgs, rep.Cells[1].TotalMsgs)
	}
	if _, ok := rep.Speedup[1000]; !ok {
		t.Fatal("no speedup recorded for n=1000")
	}
	if !strings.Contains(rep.Text, "speedup") {
		t.Fatalf("report text missing speedup column:\n%s", rep.Text)
	}
}

// TestScaleSweepSequentialLane pins the scale sweep's workers-0 lane to the
// sequential loop while an engine configured the way `experiments
// -sim-workers 2` configures one runs in the same process: the engine fills
// its specs' zero SimWorkers, the sweep's lane stays a sequential Run.
func TestScaleSweepSequentialLane(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test")
	}
	spec := bench.Scenario{
		Protocol: bench.ProtoDolev, N: 1000, Env: sim.AWS(),
		Params: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 8, Eps: 2},
		Center: 41000, Delta: 8,
	}.Spec(1, 0)
	seq, err := bench.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	viaEngine, err := (&bench.Engine{SimWorkers: 2}).RunBatch([]bench.RunSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bench.ScaleSweep(bench.Quick, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	lane0, lane2 := rep.Cells[0], rep.Cells[1]
	if !reflect.DeepEqual(lane0.Stats, seq) {
		t.Errorf("workers-0 lane differs from a sequential Run: %v vs %v", lane0.Stats.Latency, seq.Latency)
	}
	if reflect.DeepEqual(lane0.Stats, lane2.Stats) {
		t.Errorf("workers-0 lane equals the 2-worker lane (%v): it ran parallel", lane0.Stats.Latency)
	}
	if !reflect.DeepEqual(viaEngine[0], lane2.Stats) {
		t.Errorf("engine SimWorkers=2 run differs from the 2-worker lane: %v vs %v", viaEngine[0].Latency, lane2.Stats.Latency)
	}
}
