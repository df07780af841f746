package sim_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"delphi/internal/node"
	"delphi/internal/sim"
	"delphi/internal/wire"
)

// ping is a minimal test message.
type ping struct{ seq uint32 }

func (p *ping) Type() uint8   { return wire.TypeTestPing }
func (p *ping) WireSize() int { return 1 + 4 }
func (p *ping) AppendBinary(b []byte) ([]byte, error) {
	w := wire.Writer(b)
	w.U32(p.seq)
	return w, nil
}

// echoer replies to every ping once, then halts after seeing `quota` pings.
type echoer struct {
	env   node.Env
	seen  int
	quota int
	times []time.Duration
}

func (e *echoer) Init(env node.Env) {
	e.env = env
	if env.Self() == 0 {
		for i := 0; i < env.N(); i++ {
			env.Send(node.ID(i), &ping{seq: 1})
		}
	}
}

func (e *echoer) Deliver(from node.ID, m node.Message) {
	e.seen++
	if e.seen >= e.quota {
		e.env.Output(e.seen)
		e.env.Halt()
	}
}

func TestFixedLatencyDelivery(t *testing.T) {
	cfg := node.Config{N: 4, F: 1}
	procs := make([]node.Process, 4)
	for i := range procs {
		procs[i] = &echoer{quota: 1}
	}
	env := sim.Environment{Name: "t", Latency: sim.FixedLatency(5 * time.Millisecond), Cost: sim.CostModel{}}
	r, err := sim.NewRunner(cfg, env, 1, procs)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	for i := 0; i < 4; i++ {
		st := res.Stats[i]
		if !st.Halted {
			t.Errorf("node %d never halted", i)
		}
		// One hop at fixed 5ms latency, no compute.
		if st.HaltedAt != 5*time.Millisecond {
			t.Errorf("node %d halted at %v, want 5ms", i, st.HaltedAt)
		}
	}
	if res.TotalMsgs != 4 {
		t.Errorf("msgs = %d, want 4", res.TotalMsgs)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// With a 1 kB/s uplink and ~37-byte frames (5 payload + 32 MAC), four
	// sends from node 0 serialise at 37ms intervals; the last then takes the
	// 1 ms link.
	cfg := node.Config{N: 4, F: 1}
	procs := make([]node.Process, 4)
	for i := range procs {
		procs[i] = &echoer{quota: 1}
	}
	env := sim.Environment{
		Name:              "bw",
		Latency:           sim.FixedLatency(time.Millisecond),
		UplinkBytesPerSec: 1000,
		MACBytes:          32,
		Cost:              sim.CostModel{},
	}
	r, err := sim.NewRunner(cfg, env, 1, procs)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	last := res.Stats[3].HaltedAt
	want := 4*37*time.Millisecond + time.Millisecond // 4 frames of 37B at 1kB/s, one hop
	if last < want-time.Millisecond || last > want+time.Millisecond {
		t.Errorf("last delivery at %v, want ~%v", last, want)
	}
	if res.TotalBytes != 4*37 {
		t.Errorf("bytes = %d, want 148", res.TotalBytes)
	}
}

func TestComputeCostModel(t *testing.T) {
	m := sim.CostModel{
		Hash:       time.Microsecond,
		SigVerify:  10 * time.Microsecond,
		SigSign:    5 * time.Microsecond,
		Pairing:    time.Millisecond,
		PerByte:    time.Nanosecond,
		Contention: 2,
	}
	c := node.ComputeCost{Hashes: 3, SigVerifies: 2, SigSigns: 1, Pairings: 1, Bytes: 1000}
	want := 2 * (3*time.Microsecond + 20*time.Microsecond + 5*time.Microsecond + time.Millisecond + 1000*time.Nanosecond)
	if got := m.Cost(c); got != want {
		t.Errorf("Cost = %v, want %v", got, want)
	}
	sum := c.Add(node.ComputeCost{Hashes: 1})
	if sum.Hashes != 4 || sum.Pairings != 1 {
		t.Errorf("Add = %+v", sum)
	}
}

func TestLatencyModels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	wan := &sim.WANLatency{JitterFrac: 0.2}
	// Same-region (ids 0 and 8 are both Virginia) must be far below
	// cross-Pacific (Virginia ↔ Singapore, ids 0 and 6).
	var same, far time.Duration
	for i := 0; i < 200; i++ {
		same += wan.Latency(0, 8, rng)
		far += wan.Latency(0, 6, rng)
	}
	if same >= far/10 {
		t.Errorf("same-region latency %v not << cross-pacific %v", same/200, far/200)
	}
	lan := &sim.LANLatency{Base: time.Millisecond, JitterFrac: 0.1}
	for i := 0; i < 100; i++ {
		l := lan.Latency(1, 2, rng)
		if l < time.Millisecond || l > 3*time.Millisecond {
			t.Errorf("LAN latency %v outside plausible band", l)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() *sim.Result {
		cfg := node.Config{N: 7, F: 2}
		procs := make([]node.Process, 7)
		for i := range procs {
			procs[i] = &echoer{quota: 1}
		}
		r, err := sim.NewRunner(cfg, sim.AWS(), 42, procs)
		if err != nil {
			t.Fatal(err)
		}
		return r.Run()
	}
	a, b := run(), run()
	if a.Time != b.Time || a.TotalBytes != b.TotalBytes || a.Events != b.Events {
		t.Errorf("replay diverged: %+v vs %+v", a, b)
	}
	for i := range a.Stats {
		if a.Stats[i].HaltedAt != b.Stats[i].HaltedAt {
			t.Errorf("node %d halt time diverged", i)
		}
	}
}

func TestRunnerValidation(t *testing.T) {
	if _, err := sim.NewRunner(node.Config{N: 4, F: 2}, sim.Local(), 1, make([]node.Process, 4)); err == nil {
		t.Error("n < 3f+1 accepted")
	}
	if _, err := sim.NewRunner(node.Config{N: 4, F: 1}, sim.Local(), 1, make([]node.Process, 3)); err == nil {
		t.Error("process-count mismatch accepted")
	}
	if _, err := sim.NewRunner(node.Config{N: math.MaxInt32 + 1}, sim.Local(), 1, nil); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("n beyond an event's int32 node ids: got %v, want the bound named", err)
	}
}

func TestMaxTimeBound(t *testing.T) {
	// Two nodes ping-pong forever; WithMaxTime must stop the run.
	cfg := node.Config{N: 4, F: 1}
	procs := []node.Process{&pingPonger{}, &pingPonger{}, &pingPonger{}, &pingPonger{}}
	r, err := sim.NewRunner(cfg, sim.Local(), 1, procs, sim.WithMaxTime(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	if res.Time > 60*time.Millisecond {
		t.Errorf("run time %v exceeded bound", res.Time)
	}
}

type pingPonger struct{ env node.Env }

func (p *pingPonger) Init(env node.Env) {
	p.env = env
	env.Send((env.Self()+1)%node.ID(env.N()), &ping{})
}

func (p *pingPonger) Deliver(from node.ID, m node.Message) {
	p.env.Send(from, &ping{})
}

// meddler sends through another node's Env from inside its own step — an
// out-of-step send as far as the borrowed node is concerned.
type meddler struct {
	echoer
	borrowed *echoer
}

func (p *meddler) Deliver(from node.ID, m node.Message) {
	p.borrowed.env.Send(0, &ping{seq: 2})
}

// TestOutOfStepSendLeavesAtTheClock pins the departure time of a send made
// outside the sender's own processing step: the sender is idle, so its
// busy-until lies in the past, and the message must leave at the current
// virtual time, not then — which scheduled the delivery before the clock
// and stepped the clock backwards.
func TestOutOfStepSendLeavesAtTheClock(t *testing.T) {
	idle := &echoer{quota: 1}
	procs := []node.Process{&echoer{quota: 1}, &meddler{borrowed: idle}, idle, nil}
	env := sim.Environment{Name: "t", Latency: sim.FixedLatency(5 * time.Millisecond)}
	hold := func(at time.Duration, from, to node.ID, m node.Message) time.Duration {
		if to == 1 {
			return 20 * time.Millisecond
		}
		return 0
	}
	r, err := sim.NewRunner(node.Config{N: 4, F: 1}, env, 1, procs, sim.WithDelayRule(hold))
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	// Node 0's Init reaches node 1 at 25 ms; node 1 sends as the idle node 2
	// there and then, and the 5 ms link lands it on node 0 at 30 ms. Node 0
	// halted on its own 5 ms self-delivery, so the message is dropped there,
	// but it is the run's last event.
	if res.Time != 30*time.Millisecond {
		t.Errorf("run ended at %v, want 30ms: the out-of-step send left in the past", res.Time)
	}
}
