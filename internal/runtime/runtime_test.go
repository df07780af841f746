package runtime_test

import (
	"context"
	"math"
	"net"
	runtimestd "runtime"
	"testing"
	"time"

	"delphi/internal/auth"
	"delphi/internal/codec"
	"delphi/internal/core"
	"delphi/internal/node"
	"delphi/internal/runtime"
)

func liveCfg(n, f int) core.Config {
	return core.Config{
		Config: node.Config{N: n, F: f},
		Params: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2},
	}
}

func TestLiveClusterDelphi(t *testing.T) {
	cfg := liveCfg(4, 1)
	inputs := []float64{50000, 50003, 50001, 50002}
	procs := make([]node.Process, cfg.N)
	for i, v := range inputs {
		d, err := core.New(cfg, v)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = d
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := runtime.RunCluster(ctx, cfg.Config, procs, []byte("test-master"), codec.MustRegistry())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < cfg.N; i++ {
		out := res.Final(i)
		if out == nil {
			t.Fatalf("node %d: no output; err=%v", i, res.Errs[i])
		}
		r, ok := out.(core.Result)
		if !ok {
			t.Fatalf("node %d output type %T", i, out)
		}
		lo = math.Min(lo, r.Output)
		hi = math.Max(hi, r.Output)
	}
	if hi-lo >= cfg.Params.Eps {
		t.Errorf("live-cluster spread %g >= eps", hi-lo)
	}
	if lo < 50000-3-2 || hi > 50003+3+2 {
		t.Errorf("live outputs [%g, %g] outside relaxed honest range", lo, hi)
	}
}

func TestLiveClusterWithCrash(t *testing.T) {
	cfg := liveCfg(4, 1)
	procs := make([]node.Process, cfg.N)
	for i := 0; i < 3; i++ { // node 3 crashed (nil)
		d, err := core.New(cfg, 500+float64(i))
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = d
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := runtime.RunCluster(ctx, cfg.Config, procs, []byte("m"), codec.MustRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if res.Final(i) == nil {
			t.Fatalf("node %d: no output despite crash tolerance", i)
		}
	}
}

func TestAuthRejectsForgery(t *testing.T) {
	a0, err := auth.New(0, 3, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := auth.New(1, 3, []byte("secret"))
	frame := []byte{1, 2, 3}
	sealed := a0.Seal(1, frame)
	if got, err := a1.Open(0, sealed); err != nil || string(got) != string(frame) {
		t.Fatalf("genuine frame rejected: %v", err)
	}
	// Tampered payload.
	bad := append([]byte(nil), sealed...)
	bad[0] ^= 0xff
	if _, err := a1.Open(0, bad); err == nil {
		t.Error("tampered frame accepted")
	}
	// Reflected frame (same pair key, wrong direction binding).
	if _, err := a0.Open(1, sealed); err == nil {
		t.Error("reflected frame accepted")
	}
	// Wrong claimed sender.
	if _, err := a1.Open(2, sealed); err == nil {
		t.Error("frame with wrong sender accepted")
	}
}

func TestTCPTransportDelphi(t *testing.T) {
	cfg := liveCfg(4, 1)
	reg := codec.MustRegistry()
	master := []byte("tcp-master")

	lns := make([]net.Listener, cfg.N)
	addrs := make([]string, cfg.N)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	type nodeOut struct {
		i   int
		out core.Result
	}
	results := make(chan nodeOut, cfg.N)
	for i := 0; i < cfg.N; i++ {
		d, err := core.New(cfg, 40000+float64(i))
		if err != nil {
			t.Fatal(err)
		}
		a, err := auth.New(node.ID(i), cfg.N, master)
		if err != nil {
			t.Fatal(err)
		}
		tr := runtime.NewTCP(node.ID(i), addrs, lns[i], a)
		defer tr.Close()
		drv := runtime.NewDriver(cfg.Config, node.ID(i), d, tr, a, reg)
		idx := i
		go func() {
			_ = drv.Run(ctx)
			if outs := drv.Outputs(); len(outs) > 0 {
				if r, ok := outs[len(outs)-1].(core.Result); ok {
					results <- nodeOut{i: idx, out: r}
				}
			}
		}()
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for k := 0; k < cfg.N; k++ {
		select {
		case r := <-results:
			lo = math.Min(lo, r.out.Output)
			hi = math.Max(hi, r.out.Output)
		case <-ctx.Done():
			t.Fatal("timeout waiting for TCP cluster outputs")
		}
	}
	if hi-lo >= cfg.Params.Eps {
		t.Errorf("TCP cluster spread %g >= eps", hi-lo)
	}
}

// goroutinesSettle polls until the goroutine count returns to at most base
// (other tests' stragglers may still be winding down, so poll generously).
func goroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtimestd.GC()
		if n := runtimestd.NumGoroutine(); n <= base || time.Now().After(deadline) {
			if n > base {
				buf := make([]byte, 1<<16)
				t.Errorf("goroutines leaked: %d running, want <= %d\n%s",
					n, base, buf[:runtimestd.Stack(buf, true)])
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunClusterDriverErrorLeaksNothing pins construct-before-launch: a
// failing driver construction (empty master secret fails auth.New) must
// return an error before any node goroutine launches, leaving no
// goroutines or open hub behind.
func TestRunClusterDriverErrorLeaksNothing(t *testing.T) {
	cfg := liveCfg(4, 1)
	procs := make([]node.Process, cfg.N)
	for i := 0; i < cfg.N; i++ {
		d, err := core.New(cfg, 500+float64(i))
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = d
	}
	base := runtimestd.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := runtime.RunCluster(ctx, cfg.Config, procs, nil, codec.MustRegistry()); err == nil {
		t.Fatal("empty master secret: want error")
	}
	goroutinesSettle(t, base)
}

// TestRunClusterShutsDownCleanly pins the clean-exit path: a successful run
// (including a crashed node whose inbox nobody drains) must terminate every
// goroutine it started and close the hub.
func TestRunClusterShutsDownCleanly(t *testing.T) {
	cfg := liveCfg(4, 1)
	procs := make([]node.Process, cfg.N)
	for i := 0; i < 3; i++ { // node 3 crashed (nil): its inbox never drains
		d, err := core.New(cfg, 500+float64(i))
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = d
	}
	base := runtimestd.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := runtime.RunCluster(ctx, cfg.Config, procs, []byte("m"), codec.MustRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if res.Final(i) == nil {
			t.Fatalf("node %d: no output", i)
		}
	}
	goroutinesSettle(t, base)
}
