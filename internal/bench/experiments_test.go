package bench

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"delphi/internal/core"
	"delphi/internal/netadv"
	"delphi/internal/obs"
	"delphi/internal/sim"
)

// TestExperimentsGolden holds the text of every experiment at quick scale,
// seed 1, to testdata/golden_experiments.txt byte for byte: each
// experiment's text with its trailing newlines trimmed, then one blank line,
// which is the stdout of `experiments -scale quick -seed 1 -run <them>`.
// Regenerate with -update-golden only for a change that deliberately alters
// a measurement.
func TestExperimentsGolden(t *testing.T) {
	texts, err := NewEngine(0).RunExperiments(experimentNames(), Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, text := range texts {
		b.WriteString(strings.TrimRight(text, "\n") + "\n\n")
	}
	got := b.String()

	path := filepath.Join("testdata", "golden_experiments.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to generate): %v", err)
	}
	if got != string(want) {
		t.Fatalf("experiment text diverged from the golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func experimentNames() []string {
	var names []string
	for _, x := range Experiments() {
		names = append(names, x.Name)
	}
	return names
}

// countingBackend is a throwaway kind that counts the runs a batch asks
// for, by spec key, and returns empty stats without running them.
const countingBackend BackendKind = "test-counting"

var counted struct {
	sync.Mutex
	runs map[string]int
}

func init() {
	MustRegisterBackend(countingBackend, BackendCaps{Deterministic: true}, func(spec RunSpec) (*RunStats, error) {
		counted.Lock()
		counted.runs[spec.key()]++
		counted.Unlock()
		return &RunStats{}, nil
	})
}

// TestExperimentsRunCount pins the batch's de-duplication: every distinct
// spec key runs exactly once. At quick scale, seed 1, Fig. 6a and 6b each
// plan their own FIN and Abraham et al. runs, 16 in all, and run 12. The
// ten experiments that ran their own batches before the table existed plan
// 95 runs and run 87: beyond Fig. 6a/6b's four, Table 1's FIN row is
// Fig. 6a's FIN at n=16, its Delphi row is the adversary ablation's clean
// row, the compression ablation's compressed run is Fig. 6b's Delphi
// δ=20$ at n=16, and the coin-cost ablation's pairing-coin FIN is Fig. 6c's
// FIN at n=16. The whole table adds the matrix, two of whose trials are
// the latency tail's.
func TestExperimentsRunCount(t *testing.T) {
	for _, c := range []struct {
		names      []string
		plan, want int
	}{
		{[]string{"table1", "table2", "fig6a", "fig6b", "fig6c", "fig7", "validity", "tail", "adversary", "ablations"}, 95, 87},
		{[]string{"fig6a", "fig6b"}, 16, 12},
		{experimentNames(), 119, 109},
	} {
		planned := 0
		for _, x := range Experiments() {
			for _, name := range c.names {
				if x.Name == name {
					planned += len(x.Plan(Quick, 1).Specs)
				}
			}
		}
		counted.Lock()
		counted.runs = make(map[string]int)
		counted.Unlock()
		if _, err := (&Engine{Backend: countingBackend}).RunExperiments(c.names, Quick, 1); err != nil {
			t.Fatal(err)
		}
		if planned != c.plan || len(counted.runs) != c.want {
			t.Errorf("%v: planned %d runs and ran %d distinct, want %d and %d", c.names, planned, len(counted.runs), c.plan, c.want)
		}
		for k, n := range counted.runs {
			if n != 1 {
				t.Errorf("%v: ran %d times: %s", c.names, n, k)
			}
		}
	}
}

// TestRunSpecKey pins the batch key: specs that differ only in a field the
// protocol does not read share it, and every field the protocol reads
// separates them.
func TestRunSpecKey(t *testing.T) {
	base := func(proto Protocol) RunSpec {
		return RunSpec{
			Protocol: proto, N: 16, F: 5, Env: sim.AWS(), Seed: 1,
			Inputs: OracleInputs(16, 41000, 20, 1), Delphi: OracleDefaultParams(),
		}
	}
	same := map[string]func(*RunSpec){
		"fresh environment":   func(s *RunSpec) { s.Env = sim.AWS() },
		"recorder":            func(s *RunSpec) { s.Obs = obs.New() },
		"byzantine kind at 0": func(s *RunSpec) { s.ByzKind = ByzEquivocate },
	}
	differ := map[string]func(*RunSpec){
		"protocol": func(s *RunSpec) {
			if s.Protocol == ProtoDolev {
				s.Protocol = ProtoAbraham
			} else {
				s.Protocol = ProtoDolev
			}
		},
		"n":           func(s *RunSpec) { s.N = 17 },
		"f":           func(s *RunSpec) { s.F = 4 },
		"env cost":    func(s *RunSpec) { s.Env.Cost.Pairing = s.Env.Cost.Hash },
		"env latency": func(s *RunSpec) { s.Env.Latency = &sim.WANLatency{JitterFrac: 0.2} },
		"env testbed": func(s *RunSpec) { s.Env = sim.CPS() },
		"seed":        func(s *RunSpec) { s.Seed = 2 },
		"input":       func(s *RunSpec) { s.Inputs = append([]float64{41001}, s.Inputs[1:]...) },
		"crash":       func(s *RunSpec) { s.Inputs = append([]float64{math.NaN()}, s.Inputs[1:]...) },
		"adversary":   func(s *RunSpec) { s.Adversary = netadv.Adversary{Kind: netadv.SlowF} },
		"backend":     func(s *RunSpec) { s.Backend = BackendLive },
		"sim workers": func(s *RunSpec) { s.SimWorkers = 2 },
	}
	check := func(proto Protocol, same, differ map[string]func(*RunSpec)) {
		for name, mutate := range same {
			s := base(proto)
			mutate(&s)
			if s.key() != base(proto).key() {
				t.Errorf("%s: %s changes the key", proto, name)
			}
		}
		for name, mutate := range differ {
			s := base(proto)
			mutate(&s)
			if s.key() == base(proto).key() {
				t.Errorf("%s: %s keeps the key", proto, name)
			}
		}
	}
	for _, proto := range []Protocol{ProtoDelphi, ProtoFIN, ProtoAbraham, ProtoDolev} {
		check(proto, same, differ)
	}
	check(ProtoDelphi, nil, map[string]func(*RunSpec){
		"params":      func(s *RunSpec) { s.Delphi.Rho0 = 10 },
		"compression": func(s *RunSpec) { s.NoCompression = true },
		"byzantine":   func(s *RunSpec) { s.Byzantine = 1 },
	})
	check(ProtoFIN, map[string]func(*RunSpec){
		"params":      func(s *RunSpec) { s.Delphi = core.Params{} },
		"compression": func(s *RunSpec) { s.NoCompression = true },
	}, nil)
	// A Byzantine slot runs its kind (only Delphi has Byzantine slots).
	byz := func(kind ByzKind) string {
		s := base(ProtoDelphi)
		s.Byzantine, s.ByzKind = 1, kind
		return s.key()
	}
	if byz(ByzSpam) == byz(ByzEquivocate) {
		t.Error("delphi: spam and equivocate share the key")
	}
	for _, proto := range []Protocol{ProtoAbraham, ProtoDolev} {
		check(proto, map[string]func(*RunSpec){
			"same Δ/ε": func(s *RunSpec) { s.Delphi = oracleParams(10) },
		}, map[string]func(*RunSpec){
			"Δ/ε": func(s *RunSpec) { s.Delphi.Delta = 256 },
		})
	}
}

// runPlan runs a plan's specs and returns its result.
func runPlan[T any](t *testing.T, p Plan[T]) T {
	t.Helper()
	stats, err := NewEngine(0).RunBatch(p.Specs)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Reduce(stats)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestLatencyTailShape runs the engine-backed EVT analysis at quick scale.
func TestLatencyTailShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test")
	}
	rep := runPlan(t, latencyTail(Quick, 17))
	if rep.Agg.LatencyMS.N() == 0 || len(rep.Agg.LatencyMS.Samples) != rep.Agg.LatencyMS.N() {
		t.Fatalf("sample retention broken: %+v", rep.Agg.LatencyMS)
	}
	if rep.Best == "" || len(rep.Fits) == 0 {
		t.Error("no tail fit produced")
	}
	if !(rep.P99 >= rep.Agg.LatencyMS.Mean()) {
		t.Errorf("p99 %.1f below mean %.1f", rep.P99, rep.Agg.LatencyMS.Mean())
	}
}
