package acs_test

import (
	"fmt"
	"testing"

	"delphi/internal/aba"
	"delphi/internal/acs"
	"delphi/internal/coin"
	"delphi/internal/node"
	"delphi/internal/rbc"
)

// recEnv is a node.Env that logs what a process emits and outputs, in order.
type recEnv struct {
	n, f int
	log  []string
}

func (e *recEnv) Self() node.ID                   { return 0 }
func (e *recEnv) N() int                          { return e.n }
func (e *recEnv) F() int                          { return e.f }
func (e *recEnv) Send(to node.ID, m node.Message) { e.emit(fmt.Sprintf("send %d", to), m) }
func (e *recEnv) Broadcast(m node.Message)        { e.emit("broadcast", m) }
func (e *recEnv) Output(v any)                    { e.log = append(e.log, fmt.Sprintf("output %+v", v)) }
func (e *recEnv) Halt()                           {}
func (e *recEnv) ChargeCompute(node.ComputeCost)  {}

func (e *recEnv) emit(how string, m node.Message) {
	e.log = append(e.log, fmt.Sprintf("%s %T%+v", how, m, m))
}

// started returns an initialised process on a fresh env, with the env's log
// of the process's own INIT cleared.
func started(t *testing.T, n, f int) (*acs.Process, *recEnv) {
	t.Helper()
	p, err := acs.New(acs.Config{Config: node.Config{N: n, F: f}, CoinSeed: 7}, 41000)
	if err != nil {
		t.Fatal(err)
	}
	env := &recEnv{n: n, f: f}
	p.Init(env)
	env.log = nil
	return p, env
}

// TestDeliverOutOfRange: an RBC, ABA or coin message naming an initiator, tag,
// instance, round or coin out of range, or sent from outside [0, n), is
// dropped by the ACS with no allocation, nothing emitted, no ABA started and
// nothing output; and a malformed input broadcast (not 8 bytes) that RBC
// delivers starts no ABA.
func TestDeliverOutOfRange(t *testing.T) {
	const n, f = 7, 2
	p := make([]byte, 8)
	// Each case builds its i-th message, so a message that did make state
	// would make new state on every run.
	cases := []struct {
		name string
		msg  func(i int) (node.ID, node.Message)
	}{
		{"rbc init from n+i", func(i int) (node.ID, node.Message) { return node.ID(n + i), &rbc.Init{Payload: p} }},
		{"rbc init tag 1+i", func(i int) (node.ID, node.Message) { return 1, &rbc.Init{Tag: uint32(1 + i), Payload: p} }},
		{"rbc echo initiator n+i", func(i int) (node.ID, node.Message) { return 1, &rbc.Echo{Initiator: node.ID(n + i), Payload: p} }},
		{"rbc ready from n+i", func(i int) (node.ID, node.Message) { return node.ID(n + i), &rbc.Ready{Payload: p} }},
		{"aba bval instance n+i", func(i int) (node.ID, node.Message) { return 1, &aba.BVal{Inst: uint32(n + i), Round: 1} }},
		{"aba bval round 0", func(i int) (node.ID, node.Message) { return node.ID(i % n), &aba.BVal{Inst: uint32(i % n)} }},
		{"aba aux round past MaxRounds", func(i int) (node.ID, node.Message) {
			return 1, &aba.Aux{Inst: 2, Round: uint16(aba.MaxRounds + 1 + i)}
		}},
		{"aba aux from n+i", func(i int) (node.ID, node.Message) { return node.ID(n + i), &aba.Aux{Inst: 2, Round: 1} }},
		{"coin past range", func(i int) (node.ID, node.Message) {
			return 1, &coin.Share{Coin: aba.CoinID(aba.MaxRounds + 1 + i)}
		}},
		{"coin before range", func(i int) (node.ID, node.Message) { return 1, &coin.Share{Coin: aba.CoinID(0) - uint64(i)} }},
		{"coin from n+i", func(i int) (node.ID, node.Message) { return node.ID(n + i), &coin.Share{Coin: aba.CoinID(1)} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			proc, env := started(t, n, f)
			const runs = 100
			froms := make([]node.ID, runs+1) // AllocsPerRun makes one warm-up call
			msgs := make([]node.Message, runs+1)
			for i := range msgs {
				froms[i], msgs[i] = c.msg(i)
			}
			i := 0
			if a := testing.AllocsPerRun(runs, func() { proc.Deliver(froms[i], msgs[i]); i++ }); a != 0 {
				t.Errorf("%.1f allocations per dropped message", a)
			}
			if len(env.log) != 0 {
				t.Errorf("a dropped message emitted or output %q", env.log)
			}
		})
	}
	// 2t+1 READYs deliver initiator 2's broadcast; only an 8-byte one is an
	// input that starts slot 2's ABA.
	for _, size := range []int{0, 7, 8, 9} {
		t.Run(fmt.Sprintf("%d-byte input", size), func(t *testing.T) {
			proc, env := started(t, n, f)
			ready := &rbc.Ready{Initiator: 2, Payload: make([]byte, size)}
			for from := node.ID(0); from < 2*f+1; from++ {
				proc.Deliver(from, ready)
			}
			want := []string{fmt.Sprintf("broadcast *rbc.Ready%+v", ready)} // the t+1 amplification
			if size == 8 {
				want = append(want, "broadcast *aba.BVal&{Inst:2 Round:1 V:true}")
			}
			if fmt.Sprint(env.log) != fmt.Sprint(want) {
				t.Errorf("emitted %q, want %q", env.log, want)
			}
		})
	}
}
