package bench_test

import (
	"math"
	"strings"
	"testing"

	"delphi/internal/bench"
)

func TestFig6bDelphiBandwidthBelowBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test")
	}
	_, fig, err := bench.NewEngine(0).Fig6AWS(bench.Quick, 2)
	if err != nil {
		t.Fatal(err)
	}
	// At the largest quick n, Delphi's bandwidth must undercut FIN and
	// Abraham (paper: by an order of magnitude).
	last := len(fig.Series[0].Y) - 1
	delphi20 := fig.Series[0].Y[last]
	fin := fig.Series[2].Y[last]
	abraham := fig.Series[3].Y[last]
	if delphi20 >= fin {
		t.Errorf("Delphi bandwidth %.2fMB should be below FIN %.2fMB", delphi20, fin)
	}
	if delphi20 >= abraham {
		t.Errorf("Delphi bandwidth %.2fMB should be below Abraham %.2fMB", delphi20, abraham)
	}
}

func TestFig4Shape(t *testing.T) {
	rep, err := bench.Fig4(7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best != "frechet" {
		t.Errorf("best fit = %s, paper finds frechet", rep.Best)
	}
	if rep.MeanValue < 10 || rep.MeanValue > 45 {
		t.Errorf("mean δ = %.1f$, paper ballpark ~25$", rep.MeanValue)
	}
}

func TestFig5Shape(t *testing.T) {
	rep, err := bench.Fig5(8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best != "gamma" {
		t.Errorf("best fit = %s, paper finds gamma", rep.Best)
	}
	if math.Abs(rep.MeanValue-0.87) > 0.03 {
		t.Errorf("mean IoU = %.3f, paper reports 0.87", rep.MeanValue)
	}
}

func TestTable1Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test")
	}
	tbl, err := bench.NewEngine(0).Table1(bench.Quick, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	// FIN must pay pairings; Delphi must pay none (signature-free).
	var finPairings, delphiPairings string
	for _, r := range tbl.Rows {
		if strings.HasPrefix(r.Name, "FIN") {
			finPairings = r.Cells[2]
		}
		if r.Name == "Delphi" {
			delphiPairings = r.Cells[2]
		}
	}
	if finPairings == "0" {
		t.Error("FIN shows zero pairing operations")
	}
	if delphiPairings != "0" {
		t.Errorf("Delphi shows %s pairing operations, want 0", delphiPairings)
	}
}

func TestTable3SignatureCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test")
	}
	tbl, err := bench.Table3(bench.Quick, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tbl.Rows))
	}
	// Both sign exactly once per node; Delphi's certificate is smaller
	// on-chain than Chakka's n-t value list and admits <= 2 outputs.
	delphiRow := tbl.Rows[1]
	if delphiRow.Cells[5] != "1" && delphiRow.Cells[5] != "2" {
		t.Errorf("Delphi distinct outputs = %s, want <= 2", delphiRow.Cells[5])
	}
}

func TestValidityRelaxationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test")
	}
	reps, err := bench.NewEngine(0).Validity(bench.Quick, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reps {
		if r.DelphiErr <= 0 || r.BaselineErr <= 0 {
			t.Errorf("%s: degenerate errors %+v", r.App, r)
		}
		// Delphi's validity relaxation: its output can sit further from the
		// honest mean than FIN's, but within the same order of magnitude
		// (paper: ~2x).
		if r.DelphiErr > 10*r.BaselineErr+r.DeltaMean {
			t.Errorf("%s: Delphi error %.3f implausibly far above baseline %.3f",
				r.App, r.DelphiErr, r.BaselineErr)
		}
	}
}

func TestOracleInputsPinsRange(t *testing.T) {
	in := bench.OracleInputs(10, 100, 20, 1)
	lo, hi := in[0], in[0]
	for _, v := range in {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if math.Abs((hi-lo)-20) > 1e-9 {
		t.Errorf("range = %g, want exactly 20", hi-lo)
	}
}
