// Package delphi is the public API of this repository: a Go implementation
// of Delphi (Bandarupalli et al., DSN 2024), a deterministic, signature-free
// asynchronous approximate-agreement protocol for distributed oracles and
// fault-tolerant cyber-physical systems, together with the baselines,
// simulation testbeds, and application layers from the paper's evaluation.
//
// An n = 3t+1 system of nodes, each holding a real-valued measurement of a
// common quantity (a price, a location coordinate, a temperature), agrees on
// outputs that are within ε of each other (ε-agreement) and within
// max(ρ0, δ) of the honest input range (relaxed min-max validity), using
// O(n²) bits per round and no cryptography beyond authenticated channels.
// Every Simulate and RunLive* call checks both guarantees on its honest
// outputs; a run that breaks one returns an error, never results.
//
// Quick start — simulate a 4-node oracle cluster:
//
//	cfg := delphi.Config{
//		Config: delphi.System{N: 4, F: 1},
//		Params: delphi.Params{S: 0, E: 100_000, Rho0: 2, Delta: 256, Eps: 2},
//	}
//	report, err := delphi.Simulate(delphi.SimSpec{
//		Config: cfg,
//		Inputs: []float64{50_000, 50_004, 50_001, 50_003},
//		Env:    delphi.EnvAWS,
//		Seed:   1,
//	})
//
// Or run a live in-process cluster over authenticated channels:
//
//	outs, err := delphi.RunLive(ctx, cfg, inputs)
//
// Delta calibration from a noise model (§IV-D of the paper):
//
//	cal, err := delphi.CalibrateDelta(delphi.NoiseNormal(0, 10), n, 30)
package delphi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"delphi/internal/codec"
	"delphi/internal/core"
	"delphi/internal/dist"
	"delphi/internal/dora"
	"delphi/internal/evt"
	"delphi/internal/node"
	"delphi/internal/run"
	"delphi/internal/runtime"
	"delphi/internal/sim"
)

// System identifies the fault model: n nodes, up to F Byzantine.
type System = node.Config

// Params are Delphi's protocol parameters (input space, level-0 separator,
// maximum honest range Δ, agreement distance ε). See the paper's
// Algorithm 2.
type Params = core.Params

// Config combines the system and the protocol parameters.
type Config = core.Config

// Result is one node's protocol output with per-level diagnostics.
type Result = core.Result

// Certificate is the DORA layer's attested output: a rounded value carrying
// t+1 ed25519 signatures.
type Certificate = dora.Certificate

// Environment selects a simulated testbed.
type Environment int

// The available simulation environments.
const (
	// EnvLocal is a fast, deterministic environment for tests.
	EnvLocal Environment = iota + 1
	// EnvAWS models the paper's geo-distributed AWS testbed
	// (latency-dominated).
	EnvAWS
	// EnvCPS models the paper's Raspberry-Pi testbed (bandwidth- and
	// compute-dominated).
	EnvCPS
)

func (e Environment) simEnv() (sim.Environment, error) {
	switch e {
	case EnvLocal:
		return sim.Local(), nil
	case EnvAWS:
		return sim.AWS(), nil
	case EnvCPS:
		return sim.CPS(), nil
	default:
		return sim.Environment{}, fmt.Errorf("delphi: unknown environment %d", e)
	}
}

// SimSpec describes one simulated protocol run.
type SimSpec struct {
	// Config is the protocol configuration.
	Config Config
	// Inputs are the per-node measurements; use NaN for a crashed node.
	Inputs []float64
	// Env selects the simulated testbed (default EnvLocal).
	Env Environment
	// Seed drives all simulation randomness.
	Seed int64
}

// NodeReport is one node's outcome in a SimReport.
type NodeReport struct {
	// ID is the node.
	ID int
	// Crashed reports whether the node was configured as crashed.
	Crashed bool
	// Result is the node's protocol result (zero for crashed nodes).
	Result Result
	// DecidedAt is the virtual time of the node's output.
	DecidedAt time.Duration
}

// SimReport summarises a simulated run.
type SimReport struct {
	// Nodes holds the per-node outcomes.
	Nodes []NodeReport
	// Latency is the time the slowest honest node took to decide.
	Latency time.Duration
	// TotalBytes is the total bytes sent on the wire (MACs included).
	TotalBytes int64
	// TotalMsgs is the total number of messages sent.
	TotalMsgs int
	// Spread is max-min over honest outputs (must be < ε).
	Spread float64
}

// Simulate runs Delphi in the virtual-time simulator and reports latency,
// bandwidth, and agreement quality.
func Simulate(spec SimSpec) (*SimReport, error) {
	if spec.Env == 0 {
		spec.Env = EnvLocal
	}
	env, err := spec.Env.simEnv()
	if err != nil {
		return nil, err
	}
	rs := runSpec(spec.Config, spec.Inputs)
	rs.Env, rs.Seed = env, spec.Seed
	st, err := run.Run(rs)
	if err != nil {
		return nil, fmt.Errorf("delphi: %w", err)
	}
	report := &SimReport{
		Nodes:      make([]NodeReport, rs.N),
		Latency:    st.Latency,
		TotalBytes: st.TotalBytes,
		TotalMsgs:  st.TotalMsgs,
		Spread:     st.Spread,
	}
	for i, v := range spec.Inputs {
		r, _ := st.Finals[i].(Result)
		report.Nodes[i] = NodeReport{ID: i, Crashed: math.IsNaN(v), Result: r, DecidedAt: st.DecidedAt[i]}
	}
	return report, nil
}

// runSpec is the run layer's description of a Delphi run of cfg on inputs.
func runSpec(cfg Config, inputs []float64) run.RunSpec {
	return run.RunSpec{Protocol: run.ProtoDelphi, N: cfg.N, F: cfg.F, Inputs: inputs,
		Delphi: cfg.Params, NoCompression: cfg.DisableCompression}
}

// runLive runs procs as an in-process cluster on ctx and checks the honest
// outputs like every other run. It returns the slot-indexed final outputs.
func runLive(ctx context.Context, spec run.RunSpec, procs []node.Process, master string) ([]any, error) {
	reg, err := codec.NewRegistry()
	if err != nil {
		return nil, err
	}
	res, err := runtime.RunCluster(ctx, node.Config{N: spec.N, F: spec.F}, procs, []byte(master), reg)
	if err != nil {
		return nil, err
	}
	if err := errors.Join(res.Errs...); err != nil {
		return nil, fmt.Errorf("delphi: %w", err)
	}
	finals := make([]any, spec.N)
	at := make([]time.Duration, spec.N)
	for i := range finals {
		finals[i], at[i] = res.Final(i), res.FinalAt(i)
	}
	if _, err := spec.StatsFromOutputs(finals, at); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("delphi: %w: %v", ctx.Err(), err)
		}
		return nil, fmt.Errorf("delphi: %w", err)
	}
	return finals, nil
}

// RunLive runs an in-process cluster of Delphi nodes over real goroutines
// and HMAC-authenticated channels and returns the per-node results. Crashed
// nodes are expressed with NaN inputs; their results are nil. A run that
// ctx cuts short is an error wrapping ctx.Err().
func RunLive(ctx context.Context, cfg Config, inputs []float64) ([]*Result, error) {
	spec := runSpec(cfg, inputs)
	procs, err := spec.Processes()
	if err != nil {
		return nil, fmt.Errorf("delphi: %w", err)
	}
	finals, err := runLive(ctx, spec, procs, "delphi-live-master")
	if err != nil {
		return nil, err
	}
	out := make([]*Result, cfg.N)
	for i, v := range finals {
		if r, ok := v.(Result); ok {
			out[i] = &r
		}
	}
	return out, nil
}

// RunLiveOracles runs an in-process DORA oracle cluster: Delphi followed by
// the ε-rounding and t+1-signature certificate round. It returns the
// per-node certificates, each verified against the PKI derived from
// pkiSeed; it fails like RunLive, and on a certificate that does not verify.
func RunLiveOracles(ctx context.Context, cfg Config, inputs []float64, pkiSeed uint64) ([]*Certificate, error) {
	spec := runSpec(cfg, inputs)
	spec.Protocol, spec.Seed = run.ProtoDora, int64(pkiSeed)
	procs, err := spec.Processes()
	if err != nil {
		return nil, fmt.Errorf("delphi: %w", err)
	}
	finals, err := runLive(ctx, spec, procs, "delphi-dora-master")
	if err != nil {
		return nil, err
	}
	out := make([]*Certificate, cfg.N)
	for i, v := range finals {
		if c, ok := v.(Certificate); ok {
			out[i] = &c
		}
	}
	return out, nil
}

// VerifyCertificate checks a DORA certificate against the PKI derived from
// pkiSeed (the same value passed to RunLiveOracles).
func VerifyCertificate(cert *Certificate, n, f int, pkiSeed uint64) error {
	keys := dora.GenKeyrings(n, pkiSeed)
	return cert.Verify(keys[0].Pubs, f)
}

// RunLiveVector runs multi-dimensional approximate agreement the way the
// paper's drone application does (§VI-B): one independent Delphi instance
// per coordinate. points[i] is node i's d-dimensional measurement (all
// nodes must use the same d); the result is each node's agreed point.
// Honest outputs agree within ε per coordinate.
func RunLiveVector(ctx context.Context, cfg Config, points [][]float64) ([][]float64, error) {
	if len(points) != cfg.N {
		return nil, fmt.Errorf("delphi: %d points for n=%d", len(points), cfg.N)
	}
	if len(points) == 0 || len(points[0]) == 0 {
		return nil, fmt.Errorf("delphi: empty points")
	}
	dims := len(points[0])
	for i, p := range points {
		if len(p) != dims {
			return nil, fmt.Errorf("delphi: point %d has %d dims, want %d", i, len(p), dims)
		}
	}
	out := make([][]float64, cfg.N)
	for i := range out {
		out[i] = make([]float64, dims)
	}
	for d := 0; d < dims; d++ {
		coord := make([]float64, cfg.N)
		for i := range points {
			coord[i] = points[i][d]
		}
		results, err := RunLive(ctx, cfg, coord)
		if err != nil {
			return nil, fmt.Errorf("delphi: dimension %d: %w", d, err)
		}
		for i, r := range results {
			if r == nil {
				out[i] = nil
			} else if out[i] != nil {
				out[i][d] = r.Output
			}
		}
	}
	return out, nil
}

// Noise models for Delta calibration.

// NoiseModel is an input-noise distribution for CalibrateDelta.
type NoiseModel = dist.Distribution

// NoiseNormal returns a Gaussian noise model.
func NoiseNormal(mu, sigma float64) NoiseModel { return dist.Normal{Mu: mu, Sigma: sigma} }

// NoiseGamma returns a Gamma noise model.
func NoiseGamma(shape, scale float64) NoiseModel { return dist.Gamma{Shape: shape, Scale: scale} }

// NoiseLognormal returns a Lognormal noise model.
func NoiseLognormal(mu, sigma float64) NoiseModel { return dist.Lognormal{Mu: mu, Sigma: sigma} }

// NoisePareto returns a fat-tailed Pareto noise model.
func NoisePareto(xm, alpha float64) NoiseModel { return dist.Pareto{Xm: xm, Alpha: alpha} }

// Calibration reports a Δ estimate; see the paper's §IV-D.
type Calibration = evt.Calibration

// CalibrateDelta estimates Δ for an n-node system whose measurements carry
// noise from the given model, at statistical security lambda bits
// (P(δ > Δ) <= 2^-lambda). It mirrors the paper's procedure: Monte-Carlo
// range sampling, Gumbel-vs-Fréchet extreme-value fits, quantile readout.
func CalibrateDelta(noise NoiseModel, n, lambda int) (Calibration, error) {
	rng := rand.New(rand.NewSource(0x0de1f1))
	return evt.Calibrate(noise, n, lambda, 4000, rng)
}
