package delphi

import (
	"context"
	"strings"
	"testing"
	"time"

	"delphi/internal/dora"
	"delphi/internal/node"
	"delphi/internal/run"
)

// forger wraps a DORA node and flips one byte of its certificate's first
// signature on the way out.
type forger struct{ node.Process }

func (f forger) Init(env node.Env) { f.Process.Init(forgeEnv{env}) }

type forgeEnv struct{ node.Env }

func (e forgeEnv) Output(v any) {
	if c, ok := v.(dora.Certificate); ok {
		sig := append([]byte(nil), c.Sigs[0]...)
		sig[0] ^= 1
		c.Sigs = append([][]byte{sig}, c.Sigs[1:]...)
		v = c
	}
	e.Env.Output(v)
}

// TestRunLiveOraclesRejectsForgedCertificate runs RunLiveOracles' spec and
// cluster with one node forging its certificate: the run layer's check
// rejects it, so RunLiveOracles returns an error, not certificates.
func TestRunLiveOraclesRejectsForgedCertificate(t *testing.T) {
	cfg := Config{Config: System{N: 4, F: 1}, Params: Params{S: 0, E: 100_000, Rho0: 2, Delta: 256, Eps: 2}}
	spec := runSpec(cfg, []float64{40000, 40002, 40001, 40003})
	spec.Protocol, spec.Seed = run.ProtoDora, 42
	procs, err := spec.Processes()
	if err != nil {
		t.Fatal(err)
	}
	procs[0] = forger{procs[0]}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := runLive(ctx, spec, procs, "delphi-dora-master"); err == nil || !strings.Contains(err.Error(), "invalid signature") {
		t.Errorf("a forged certificate gave %v, want an invalid-signature error", err)
	}
}
