package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"delphi/internal/core"
	"delphi/internal/netadv"
	"delphi/internal/run"
	"delphi/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the sim byte-identity golden file")

// goldenSimCells is the byte-identity corpus: one cell per protocol ×
// adversary preset (clean plus the five netadv presets), all at one fixed
// seed. The corpus is deliberately small — its job is not coverage but a
// bit-exact fingerprint of the simulator's schedule: any change to event
// ordering, rng consumption, latency/cost arithmetic, or adversarial delay
// evaluation shifts at least one cell's latency, traffic, or outputs.
//
// Those 24 cells are toy-sized. The nine that follow them — Delphi n=40,
// FIN n=31 and Dolev n=300, clean and under two presets — fill windows past
// the radix sort's threshold and chain several chunks per window.
func goldenSimCells() []run.RunSpec {
	params := core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2}
	var specs []run.RunSpec
	cell := func(proto run.Protocol, n, f int, adv netadv.Adversary) {
		const seed = 424242
		specs = append(specs, run.RunSpec{
			Protocol:  proto,
			N:         n,
			F:         f,
			Env:       sim.AWS(),
			Seed:      seed,
			Inputs:    OracleInputs(n, 41000, 20, seed),
			Delphi:    params,
			Adversary: adv,
		})
	}
	for _, proto := range []run.Protocol{run.ProtoDelphi, run.ProtoFIN, run.ProtoAbraham, run.ProtoDolev} {
		n, f := 8, 2
		if proto == run.ProtoDolev {
			n, f = 6, 1 // Dolev needs n >= 5t+1
		}
		for _, adv := range append([]netadv.Adversary{{}}, netadv.Presets()...) {
			cell(proto, n, f, adv)
		}
	}
	for _, big := range []struct {
		proto run.Protocol
		n, f  int
	}{{run.ProtoDelphi, 40, 13}, {run.ProtoFIN, 31, 10}, {run.ProtoDolev, 300, 59}} {
		for _, kind := range []netadv.Kind{netadv.None, netadv.JitterStorm, netadv.Partition} {
			cell(big.proto, big.n, big.f, netadv.Adversary{Kind: kind})
		}
	}
	return specs
}

// goldenLine renders one cell's stats with no precision loss: durations as
// integer nanoseconds, floats in hexadecimal so every mantissa bit is in the
// file. Two runs produce the same line iff they are byte-identical.
func goldenLine(spec run.RunSpec, st *run.RunStats) string {
	hex := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	outs := make([]string, len(st.Outputs))
	for i, v := range st.Outputs {
		outs[i] = hex(v)
	}
	return fmt.Sprintf("%s/%s lat=%d bytes=%d msgs=%d spread=%s abserr=%s sigv=%d pair=%d outs=%s",
		spec.Protocol, spec.Adversary, int64(st.Latency), st.TotalBytes, st.TotalMsgs,
		hex(st.Spread), hex(st.MeanAbsErr), st.SigVerifies, st.Pairings,
		strings.Join(outs, ","))
}

// TestSimGoldenByteIdentity is the fixed-seed byte-identity gate: the
// simulator's outputs for every protocol under every adversary preset must
// match the checked-in golden file bit for bit. The goldens are the window
// executor's schedule, which the earlier executor produced with one shard
// (before that, each window was sorted by destination first; within a
// window only each node's own order is observable). Regenerate with
// -update-golden only for a change that deliberately alters the simulated
// schedule.
func TestSimGoldenByteIdentity(t *testing.T) {
	specs := goldenSimCells()
	var lines []string
	for _, spec := range specs {
		st, err := run.Run(spec)
		if err != nil {
			t.Fatalf("%s/%s: %v", spec.Protocol, spec.Adversary, err)
		}
		lines = append(lines, goldenLine(spec, st))
	}
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "golden_sim.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cells)", path, len(lines))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to generate): %v", err)
	}
	if got != string(want) {
		gl := strings.Split(got, "\n")
		wl := strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("cell %d diverged:\n got %s\nwant %s", i, gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("cell count diverged: got %d, want %d lines", len(gl), len(wl))
		}
		t.Fatal("simulator outputs are not byte-identical to the golden schedule")
	}
}
