// Command delphi runs a live Delphi cluster.
//
// In-process mode (default) spawns n nodes as goroutines connected by
// HMAC-authenticated in-memory channels, feeds them inputs around a centre
// value, and prints each node's output:
//
//	delphi -n 7 -f 2 -center 41000 -spread 20
//
// TCP mode runs one node of a multi-process cluster; peers are listed as a
// comma-separated address list (index = node id):
//
//	delphi -tcp -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,... -input 41003
//
// With -oracle, nodes additionally run the DORA certificate round and print
// an attested, t+1-signed value.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"time"

	"delphi"
	"delphi/internal/auth"
	"delphi/internal/codec"
	"delphi/internal/core"
	"delphi/internal/node"
	"delphi/internal/runtime"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "delphi:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("delphi", flag.ContinueOnError)
	var (
		n       = fs.Int("n", 7, "number of nodes (in-process mode)")
		f       = fs.Int("f", 2, "fault bound t (n >= 3t+1)")
		center  = fs.Float64("center", 41000, "centre of generated inputs")
		spread  = fs.Float64("spread", 20, "range of generated inputs")
		rho0    = fs.Float64("rho0", 2, "level-0 separator ρ0")
		delta   = fs.Float64("delta", 2000, "maximum honest range Δ")
		eps     = fs.Float64("eps", 2, "agreement distance ε")
		seed    = fs.Int64("seed", 1, "input generation seed")
		oracle  = fs.Bool("oracle", false, "run the DORA certificate round")
		timeout = fs.Duration("timeout", 2*time.Minute, "run deadline")

		tcp    = fs.Bool("tcp", false, "TCP mode: run a single node")
		id     = fs.Int("id", 0, "this node's id (TCP mode)")
		peers  = fs.String("peers", "", "comma-separated peer addresses (TCP mode)")
		input  = fs.Float64("input", 0, "this node's input (TCP mode)")
		master = fs.String("master", "delphi-demo-master", "shared channel-key secret")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := delphi.Config{
		Config: delphi.System{N: *n, F: *f},
		Params: delphi.Params{S: 0, E: 1e9, Rho0: *rho0, Delta: *delta, Eps: *eps},
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if *tcp {
		return runTCP(ctx, cfg, *id, *peers, *input, *master)
	}
	return runInProcess(ctx, cfg, *center, *spread, *seed, *oracle)
}

func runInProcess(ctx context.Context, cfg delphi.Config, center, spread float64, seed int64, oracle bool) error {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]float64, cfg.N)
	for i := range inputs {
		inputs[i] = center + (rng.Float64()-0.5)*spread
	}
	fmt.Printf("cluster: n=%d t=%d  ρ0=%g Δ=%g ε=%g  (r_M=%d rounds, l_M=%d levels)\n",
		cfg.N, cfg.F, cfg.Params.Rho0, cfg.Params.Delta, cfg.Params.Eps,
		cfg.Params.Rounds(cfg.N), cfg.Params.Levels())
	for i, v := range inputs {
		fmt.Printf("  node %2d input  %.4f\n", i, v)
	}

	start := time.Now()
	if oracle {
		// RunLiveOracles verifies every certificate it returns.
		certs, err := delphi.RunLiveOracles(ctx, cfg, inputs, 42)
		if err != nil {
			return err
		}
		for i, c := range certs {
			if c == nil {
				fmt.Printf("  node %2d: no certificate\n", i)
				continue
			}
			fmt.Printf("  node %2d attested %.4f (%d signers, verified)\n", i, c.Value, len(c.Signers))
		}
	} else {
		results, err := delphi.RunLive(ctx, cfg, inputs)
		if err != nil {
			return err
		}
		for i, r := range results {
			if r == nil {
				fmt.Printf("  node %2d: no output\n", i)
				continue
			}
			fmt.Printf("  node %2d output %.6f\n", i, r.Output)
		}
	}
	fmt.Printf("done in %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func runTCP(ctx context.Context, cfg delphi.Config, id int, peerList string, input float64, master string) error {
	addrs := strings.Split(peerList, ",")
	if len(addrs) != cfg.N {
		return fmt.Errorf("need %d peer addresses, got %d", cfg.N, len(addrs))
	}
	if id < 0 || id >= cfg.N {
		return fmt.Errorf("id %d out of range", id)
	}
	proc, err := core.New(cfg, input)
	if err != nil {
		return err
	}
	a, err := auth.New(node.ID(id), cfg.N, []byte(master))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return fmt.Errorf("listen %s: %w", addrs[id], err)
	}
	tr := runtime.NewTCP(node.ID(id), addrs, ln, a)
	defer tr.Close()
	reg, err := codec.NewRegistry()
	if err != nil {
		return err
	}
	drv := runtime.NewDriver(cfg.Config, node.ID(id), proc, tr, a, reg)
	// Give peers a moment to bind before the first broadcast storm.
	time.Sleep(500 * time.Millisecond)
	if err := drv.Run(ctx); err != nil {
		return err
	}
	var last any
	if outs := drv.Outputs(); len(outs) > 0 {
		last = outs[len(outs)-1]
	}
	r, ok := last.(delphi.Result)
	if !ok {
		return fmt.Errorf("no result (got %T)", last)
	}
	fmt.Printf("node %d: input %.6f -> output %.6f\n", id, input, r.Output)
	return nil
}
