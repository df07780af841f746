package bench

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// TestFig6Golden holds the rendered Fig. 6 panels at quick scale, seed 1, to
// the checked-in text byte for byte: every latency and megabyte the figure
// prints. Regenerate with -update-golden only for a change that deliberately
// alters a Fig. 6 measurement.
func TestFig6Golden(t *testing.T) {
	e := NewEngine(0)
	runtime, bandwidth, err := e.Fig6AWS(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	cps, err := e.Fig6c(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := runtime.Text + bandwidth.Text + cps.Text

	path := filepath.Join("testdata", "golden_fig6.txt")
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
		t.Fatalf("Fig. 6 text diverged from the golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// countingBackend is a throwaway kind that counts the simulations an
// experiment asks for and runs each on the simulator.
const countingBackend BackendKind = "test-counting"

var countedRuns atomic.Int64

func init() {
	MustRegisterBackend(countingBackend, BackendCaps{Deterministic: true}, func(spec RunSpec) (*RunStats, error) {
		countedRuns.Add(1)
		spec.Backend = ""
		return Run(spec)
	})
}

// TestFig6AWSRunCount pins the sharing in Fig6AWS: at quick scale (two node
// counts) one batch runs Delphi at two ranges under each panel's parameters
// plus one FIN and one Abraham et al. run per n — 12 simulations, where
// running the panels separately takes 16.
func TestFig6AWSRunCount(t *testing.T) {
	countedRuns.Store(0)
	if _, _, err := (&Engine{Backend: countingBackend}).Fig6AWS(Quick, 1); err != nil {
		t.Fatal(err)
	}
	if got := countedRuns.Load(); got != 12 {
		t.Errorf("Fig6AWS(Quick) ran %d simulations, want 12", got)
	}
}
