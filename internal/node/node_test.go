package node_test

import (
	"testing"
	"testing/quick"

	"delphi/internal/node"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  node.Config
		ok   bool
	}{
		{"minimal", node.Config{N: 1, F: 0}, true},
		{"classic", node.Config{N: 4, F: 1}, true},
		{"exact bound", node.Config{N: 7, F: 2}, true},
		{"too many faults", node.Config{N: 6, F: 2}, false},
		{"zero nodes", node.Config{N: 0, F: 0}, false},
		{"negative faults", node.Config{N: 4, F: -1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if (err == nil) != c.ok {
				t.Errorf("Validate(%+v) = %v, want ok=%v", c.cfg, err, c.ok)
			}
		})
	}
}

func TestQuorumProperty(t *testing.T) {
	// For every valid config: quorum > 2f (two quorums intersect in > f
	// nodes, i.e. at least one honest node).
	f := func(fRaw uint8) bool {
		fl := int(fRaw % 40)
		cfg := node.Config{N: 3*fl + 1, F: fl}
		if err := cfg.Validate(); err != nil {
			return false
		}
		q := cfg.Quorum()
		return q == cfg.N-cfg.F && 2*q-cfg.N >= cfg.F+1-1 && q >= 2*cfg.F+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComputeCostAdd(t *testing.T) {
	a := node.ComputeCost{Hashes: 1, SigVerifies: 2, SigSigns: 3, Pairings: 4, Bytes: 5}
	b := node.ComputeCost{Hashes: 10, SigVerifies: 20, SigSigns: 30, Pairings: 40, Bytes: 50}
	got := a.Add(b)
	want := node.ComputeCost{Hashes: 11, SigVerifies: 22, SigSigns: 33, Pairings: 44, Bytes: 55}
	if got != want {
		t.Errorf("Add = %+v, want %+v", got, want)
	}
	if a.Accumulate(b); a != want {
		t.Errorf("Accumulate left %+v, want %+v", a, want)
	}
}

func TestIDString(t *testing.T) {
	if got := node.ID(7).String(); got != "node-7" {
		t.Errorf("String = %q", got)
	}
}
