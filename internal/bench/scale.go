package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"delphi/internal/core"
	"delphi/internal/sim"
)

// ScaleCell is one (n, workers) point of the scale sweep: a single
// simulated run with its measured host wall time.
type ScaleCell struct {
	// Name is the matrix cell name ("aws/n=1000/... [/simw=8]").
	Name string
	// N and Workers locate the cell on the sweep's axes (Workers 0 is the
	// sequential loop).
	N, Workers int
	// Wall is the host time the run took — real time, so it varies run to
	// run and is never byte-identity material.
	Wall time.Duration
	// TotalMsgs counts the run's messages (the work scale at this n).
	TotalMsgs int
	// Stats holds the run's protocol statistics.
	Stats *RunStats
}

// ScaleReport is the scale sweep's result: the per-cell measurements and
// the parallel speedup per node count.
type ScaleReport struct {
	// Cells holds every (n, workers) measurement, in matrix order.
	Cells []ScaleCell
	// Speedup maps n to sequential wall / parallel wall at that n.
	Speedup map[int]float64
	// Text is the rendered table.
	Text string
}

// ScaleSweep measures the simulator's n=1000+ scale curve, sequential
// versus the parallel window executor, via the Matrix SimWorkerCounts
// axis. The workload is the Dolev baseline — all-to-all value rounds, so
// O(n²) messages per round; the RBC-based baselines are O(n³) and
// intractable at this scale — with a 2-round parameterisation so the
// Paper scale's n=4000 cell stays tractable; workers is the parallel
// lane's shard count (8 matches the benchmark gate). Wall times are host
// measurements: on a single core the speedup isolates the executor's
// cache-locality win, with more cores it compounds with real parallelism.
func ScaleSweep(scale Scale, workers int, seed int64) (*ScaleReport, error) {
	ns := []int{1000}
	if scale == Paper {
		ns = []int{1000, 2000, 4000}
	}
	if workers <= 0 {
		workers = 8
	}
	m := Matrix{
		Base: Scenario{
			Protocol: ProtoDolev,
			Env:      sim.AWS(),
			// Δ/ε = 4 keeps the baseline at 2 halving rounds.
			Params: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 8, Eps: 2},
			Center: 41000,
			Delta:  8,
		},
		Ns:              ns,
		SimWorkerCounts: []int{0, workers},
	}
	rep := &ScaleReport{Speedup: make(map[int]float64)}
	scratches := make(map[int]*sim.Scratch)
	seqWall := make(map[int]time.Duration)
	for _, cell := range m.Scenarios() {
		if err := cell.Validate(); err != nil {
			return nil, err
		}
		spec := cell.Spec(seed, 0)
		// Each lane keeps its own scratch across sizes; a collection
		// before the timer keeps one lane's garbage off the other's clock.
		scratch := scratches[cell.SimWorkers]
		if scratch == nil {
			scratch = new(sim.Scratch)
			scratches[cell.SimWorkers] = scratch
		}
		runtime.GC()
		start := time.Now()
		stats, err := runSim(spec, scratch)
		if err != nil {
			return nil, fmt.Errorf("bench: scale cell %q: %w", cell.Name, err)
		}
		wall := time.Since(start)
		rep.Cells = append(rep.Cells, ScaleCell{
			Name: cell.Name, N: cell.N, Workers: cell.SimWorkers,
			Wall: wall, TotalMsgs: stats.TotalMsgs, Stats: stats,
		})
		if cell.SimWorkers == 0 {
			seqWall[cell.N] = wall
		} else if sw := seqWall[cell.N]; sw > 0 && wall > 0 {
			rep.Speedup[cell.N] = float64(sw) / float64(wall)
		}
	}
	rep.render(workers)
	return rep, nil
}

// render formats the sweep table.
func (r *ScaleReport) render(workers int) {
	var b strings.Builder
	fmt.Fprintf(&b, "scale sweep — dolev baseline, sequential vs %d-worker parallel window\n", workers)
	fmt.Fprintf(&b, "  %8s %8s %12s %12s %10s\n", "n", "workers", "wall", "msgs", "speedup")
	for _, c := range r.Cells {
		speedup := "-"
		if c.Workers > 0 {
			if s, ok := r.Speedup[c.N]; ok {
				speedup = fmt.Sprintf("%.2fx", s)
			}
		}
		fmt.Fprintf(&b, "  %8d %8d %12s %12d %10s\n",
			c.N, c.Workers, c.Wall.Round(time.Millisecond), c.TotalMsgs, speedup)
	}
	r.Text = b.String()
}
