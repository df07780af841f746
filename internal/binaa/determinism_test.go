package binaa_test

import (
	"reflect"
	"testing"

	"delphi/internal/binaa"
	"delphi/internal/node"
	"delphi/internal/sim"
)

// binaaSchedule runs a BinAA cluster and returns the full per-node traffic
// accounting — message and byte counts are a fingerprint of the entire
// simulated schedule, so any map-order leak into broadcast staging shows up
// here even when the final weights happen to agree.
func binaaSchedule(t *testing.T, seed int64) ([]sim.NodeStats, []map[binaa.IID]float64) {
	t.Helper()
	n, f := 7, 2
	cfg := binaa.Config{Config: node.Config{N: n, F: f}, Rounds: 6}
	// Many instances per node with node-dependent membership: the
	// engine's instList seeding (the audited map-iteration site) gets a
	// different input map shape at every node.
	procs := make([]node.Process, n)
	for i := range procs {
		in := make(map[binaa.IID]float64)
		for k := int32(0); k < 6; k++ {
			if (int32(i)+k)%3 != 0 {
				in[binaa.IID{Level: uint8(k % 3), K: 100 + k + int32(i%2)}] = 1
			}
		}
		p, err := binaa.NewProcess(cfg, in)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	r, err := sim.NewRunner(node.Config{N: n, F: f}, sim.AWS(), seed, procs)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	weights := make([]map[binaa.IID]float64, n)
	for i := range procs {
		if len(res.Stats[i].Output) == 0 {
			t.Fatalf("node %d: no output", i)
		}
		weights[i] = res.Stats[i].Output[len(res.Stats[i].Output)-1].(map[binaa.IID]float64)
	}
	return res.Stats, weights
}

// TestEngineRerunDeterminism is the fixed-seed regression for the audited
// instList-seeding site (NewEngine's input-map walk, now sorted): two runs of
// the same seed must produce an identical schedule — every node's
// sent/received message and byte counts — and identical weights.
func TestEngineRerunDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 17} {
		sa, wa := binaaSchedule(t, seed)
		sb, wb := binaaSchedule(t, seed)
		for i := range sa {
			if sa[i].MsgsSent != sb[i].MsgsSent || sa[i].BytesSent != sb[i].BytesSent ||
				sa[i].MsgsRecv != sb[i].MsgsRecv {
				t.Errorf("seed %d node %d: schedule diverges: sent %d/%dB recv %d vs sent %d/%dB recv %d",
					seed, i, sa[i].MsgsSent, sa[i].BytesSent, sa[i].MsgsRecv,
					sb[i].MsgsSent, sb[i].BytesSent, sb[i].MsgsRecv)
			}
			if sa[i].OutputAt != sb[i].OutputAt {
				t.Errorf("seed %d node %d: output time %v vs %v", seed, i, sa[i].OutputAt, sb[i].OutputAt)
			}
		}
		if !reflect.DeepEqual(wa, wb) {
			t.Errorf("seed %d: weights diverge between reruns", seed)
		}
	}
}
