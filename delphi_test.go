package delphi_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"delphi"
)

func apiConfig(n, f int) delphi.Config {
	return delphi.Config{
		Config: delphi.System{N: n, F: f},
		Params: delphi.Params{S: 0, E: 100000, Rho0: 2, Delta: 256, Eps: 2},
	}
}

// checkSimReport pins a simulated run's latency and traffic (so routing
// Simulate through the run layer provably moves nothing) and checks that
// every live node reports its decision time and round count.
func checkSimReport(t *testing.T, rep *delphi.SimReport, latency time.Duration, bytes int64, msgs int) {
	t.Helper()
	if rep.Latency != latency || rep.TotalBytes != bytes || rep.TotalMsgs != msgs {
		t.Errorf("latency %v, bytes %d, msgs %d; want %v, %d, %d",
			rep.Latency, rep.TotalBytes, rep.TotalMsgs, latency, bytes, msgs)
	}
	for _, nr := range rep.Nodes {
		if !nr.Crashed && (nr.DecidedAt <= 0 || nr.Result.Rounds <= 0) {
			t.Errorf("node %d: DecidedAt %v, Rounds %d; want both set", nr.ID, nr.DecidedAt, nr.Result.Rounds)
		}
	}
}

func TestSimulateQuickstart(t *testing.T) {
	cfg := apiConfig(4, 1)
	for _, tc := range []struct {
		env     delphi.Environment
		latency time.Duration
		bytes   int64
		msgs    int
	}{
		{delphi.EnvAWS, 838079952 * time.Nanosecond, 34856, 712},
		{delphi.EnvLocal, 28148 * time.Microsecond, 34928, 720},
	} {
		rep, err := delphi.Simulate(delphi.SimSpec{
			Config: cfg,
			Inputs: []float64{50000, 50004, 50001, 50003},
			Env:    tc.env,
			Seed:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Spread >= cfg.Params.Eps {
			t.Errorf("spread %g >= eps", rep.Spread)
		}
		if rep.Latency <= 0 {
			t.Error("zero latency")
		}
		if rep.TotalBytes <= 0 || rep.TotalMsgs <= 0 {
			t.Error("no traffic accounted")
		}
		for _, nr := range rep.Nodes {
			if nr.Crashed {
				t.Errorf("node %d unexpectedly crashed", nr.ID)
			}
			if nr.Result.Output < 50000-4-2 || nr.Result.Output > 50004+4+2 {
				t.Errorf("node %d output %g outside relaxed range", nr.ID, nr.Result.Output)
			}
		}
		checkSimReport(t, rep, tc.latency, tc.bytes, tc.msgs)
	}
}

func TestSimulateWithCrashes(t *testing.T) {
	cfg := apiConfig(7, 2)
	rep, err := delphi.Simulate(delphi.SimSpec{
		Config: cfg,
		Inputs: []float64{500, math.NaN(), 502, 501, math.NaN(), 503, 500.5},
		Env:    delphi.EnvCPS,
		Seed:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	crashed := 0
	for _, nr := range rep.Nodes {
		if nr.Crashed {
			crashed++
		}
	}
	if crashed != 2 {
		t.Errorf("crashed = %d, want 2", crashed)
	}
	if rep.Spread >= cfg.Params.Eps {
		t.Errorf("spread %g >= eps", rep.Spread)
	}
	checkSimReport(t, rep, 33965470*time.Nanosecond, 74697, 1624)
}

func TestSimulateValidation(t *testing.T) {
	cfg := apiConfig(4, 1)
	if _, err := delphi.Simulate(delphi.SimSpec{Config: cfg, Inputs: []float64{1, 2}}); err == nil {
		t.Error("input-count mismatch accepted")
	}
	bad := cfg
	bad.Params.Eps = -1
	if _, err := delphi.Simulate(delphi.SimSpec{Config: bad, Inputs: []float64{1, 2, 3, 4}}); err == nil {
		t.Error("negative eps accepted")
	}
	if _, err := delphi.Simulate(delphi.SimSpec{Config: cfg, Inputs: []float64{1, 2, 3, 4}, Env: delphi.Environment(99)}); err == nil {
		t.Error("unknown environment accepted")
	}
	nan := math.NaN()
	if _, err := delphi.Simulate(delphi.SimSpec{Config: cfg, Inputs: []float64{nan, nan, nan, nan}}); err == nil {
		t.Error("all-crashed run accepted")
	}
}

func TestRunLive(t *testing.T) {
	cfg := apiConfig(4, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results, err := delphi.RunLive(ctx, cfg, []float64{40000, 40002, 40001, 40003})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, r := range results {
		if r == nil {
			t.Fatalf("node %d: nil result", i)
		}
		lo = math.Min(lo, r.Output)
		hi = math.Max(hi, r.Output)
	}
	if hi-lo >= cfg.Params.Eps {
		t.Errorf("spread %g >= eps", hi-lo)
	}
}

func TestRunLiveOraclesCertificates(t *testing.T) {
	cfg := apiConfig(4, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	certs, err := delphi.RunLiveOracles(ctx, cfg, []float64{40000, 40002, 40001, 40003}, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range certs {
		if c == nil {
			t.Fatalf("oracle %d: nil certificate", i)
		}
		if err := delphi.VerifyCertificate(c, cfg.N, cfg.F, 42); err != nil {
			t.Errorf("oracle %d: %v", i, err)
		}
	}
}

// TestRunLiveCancelledContext: a cluster that ctx stops before it decides
// is an error wrapping ctx.Err(), never nil results with a nil error.
func TestRunLiveCancelledContext(t *testing.T) {
	cfg := apiConfig(4, 1)
	inputs := []float64{40000, 40002, 40001, 40003}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := delphi.RunLive(ctx, cfg, inputs); !errors.Is(err, context.Canceled) {
		t.Errorf("RunLive = %v, %v; want an error wrapping context.Canceled", res, err)
	}
	if certs, err := delphi.RunLiveOracles(ctx, cfg, inputs, 42); !errors.Is(err, context.Canceled) {
		t.Errorf("RunLiveOracles = %v, %v; want an error wrapping context.Canceled", certs, err)
	}
	if pts, err := delphi.RunLiveVector(ctx, cfg, [][]float64{{1}, {2}, {3}, {4}}); !errors.Is(err, context.Canceled) {
		t.Errorf("RunLiveVector = %v, %v; want an error wrapping context.Canceled", pts, err)
	}
}

func TestCalibrateDelta(t *testing.T) {
	cal, err := delphi.CalibrateDelta(delphi.NoiseNormal(0, 10), 64, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !cal.ThinTailed {
		t.Error("normal noise should calibrate as thin-tailed")
	}
	if cal.Delta <= 0 {
		t.Error("non-positive Delta")
	}
}
