package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"delphi/internal/core"
	"delphi/internal/dist"
	"delphi/internal/feeds"
	"delphi/internal/run"
	"delphi/internal/sim"
)

// goldenServiceCells is the simulator service model's byte-identity corpus:
// both arrival laws, a waiting room of zero and of several rounds, a window
// of one and of four, and one saturated config that sheds. The admission
// machine (arrive → admit / queue / shed, finish → dequeue next) decides
// every number in a fingerprint, so any change to its order of operations
// shows here.
func goldenServiceCells() []struct {
	name string
	cfg  ServiceConfig
} {
	scn := Scenario{
		Name: "svc", Protocol: run.ProtoDelphi, N: 8, Env: sim.AWS(),
		Params: core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2},
		Center: 41000, Delta: 20,
	}
	subs := feeds.Population{
		Size: 1_000_000, Seed: 7, Base: 5 * time.Millisecond,
		Jitter: dist.Lognormal{Mu: 2, Sigma: 0.5},
	}
	cell := func(arr ArrivalKind, rate float64, window, queue int) ServiceConfig {
		return ServiceConfig{
			Scenario: scn, Rounds: 40, Rate: rate, Arrivals: arr,
			Window: window, Queue: queue, Subscribers: subs, Representatives: 3,
		}
	}
	return []struct {
		name string
		cfg  ServiceConfig
	}{
		{"poisson/w=4/q=8", cell(ArrivalPoisson, 4, 4, 8)},
		{"bursty/w=4/q=8", cell(ArrivalBursty, 4, 4, 8)},
		{"poisson/w=1/q=0", cell(ArrivalPoisson, 1, 1, 0)},
		{"bursty/w=1/q=3", cell(ArrivalBursty, 1, 1, 3)},
		{"poisson/w=4/q=0", cell(ArrivalPoisson, 5, 4, 0)},
		{"saturated/w=2/q=2", cell(ArrivalPoisson, 100000, 2, 2)},
	}
}

// TestServiceSimGolden holds the simulator service model's reports to the
// checked-in fingerprints, byte for byte. Regenerate with -update-golden
// only for a change that deliberately alters the service model.
func TestServiceSimGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenServiceCells() {
		rep, err := NewEngine(2).RunService(c.cfg, 42)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "== %s\n%s", c.name, rep.Fingerprint())
	}
	got := b.String()
	path := filepath.Join("testdata", "golden_service.txt")
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
		t.Fatalf("service reports diverged from the golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}
