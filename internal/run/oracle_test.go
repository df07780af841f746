package run_test

import (
	"slices"
	"strings"
	"testing"
	"time"

	"delphi/internal/bench"
	"delphi/internal/core"
	"delphi/internal/dora"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// TestChakkaAdoptsChannelFirst: Chakka et al.'s oracles do not ε-agree on
// their own medians, here 20 and 30 against ε = 2. They agree through the
// SMR channel, whose first submission is the earliest, ties going to the
// lower slot: slots 1 and 3 both decide at 5 ms, so every oracle adopts
// slot 1's median, 30. Each submission's own median is still checked for
// validity.
func TestChakkaAdoptsChannelFirst(t *testing.T) {
	spec := run.RunSpec{Protocol: run.ProtoChakka, N: 4, F: 1, Inputs: []float64{10, 20, 30, 40},
		Delphi: core.Params{Eps: 2}}
	sub := func(vals ...float64) dora.ChakkaSubmission { return dora.ChakkaSubmission{Values: vals} }
	finals := []any{sub(10, 20, 30), sub(20, 30, 40), sub(10, 30, 40), sub(10, 20, 40)}
	const ms = time.Millisecond
	at := []time.Duration{9 * ms, 5 * ms, 7 * ms, 5 * ms}
	st, err := spec.StatsFromOutputs(finals, at)
	if err != nil {
		t.Fatal(err)
	}
	if st.Spread != 0 || !slices.Equal(st.Outputs, []float64{30, 30, 30, 30}) {
		t.Errorf("outputs %v, spread %g; want every oracle at slot 1's median 30", st.Outputs, st.Spread)
	}
	finals[2] = sub(10, 50, 60)
	if _, err := spec.StatsFromOutputs(finals, at); err == nil || !strings.Contains(err.Error(), "validity") {
		t.Errorf("a submission with median 50 outside [10, 40] gave %v, want a validity error", err)
	}
}

// TestDoraCertificatesVerified: a DORA run's certificates are verified
// against the spec's keyring, so one flipped signature byte fails the run.
func TestDoraCertificatesVerified(t *testing.T) {
	const n, seed = 4, 3
	spec := run.RunSpec{Protocol: run.ProtoDora, N: n, F: 1, Env: sim.Local(), Seed: seed,
		Inputs: bench.OracleInputs(n, 41000, 20, seed), Delphi: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2}}
	st, err := run.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.SigSigns != n {
		t.Errorf("%d signs, want one per node (%d)", st.SigSigns, n)
	}
	finals := slices.Clone(st.Finals)
	cert := finals[0].(dora.Certificate)
	cert.Sigs = slices.Clone(cert.Sigs)
	cert.Sigs[0] = slices.Clone(cert.Sigs[0])
	cert.Sigs[0][0] ^= 1
	finals[0] = cert
	if _, err := spec.StatsFromOutputs(finals, st.DecidedAt); err == nil || !strings.Contains(err.Error(), "invalid signature") {
		t.Errorf("a flipped signature byte gave %v, want an invalid-signature error", err)
	}
}
