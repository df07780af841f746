package byz_test

import (
	"math/rand"
	"testing"

	"delphi/internal/binaa"
	"delphi/internal/byz"
	"delphi/internal/node"
)

// sent is one message a behaviour handed its environment; to is -1 for a
// broadcast.
type sent struct {
	to node.ID
	m  node.Message
}

// recEnv is a node.Env that records every send and the halt.
type recEnv struct {
	n      int
	sends  []sent
	halted bool
}

func (e *recEnv) Self() node.ID                    { return 0 }
func (e *recEnv) N() int                           { return e.n }
func (e *recEnv) F() int                           { return (e.n - 1) / 3 }
func (e *recEnv) Send(to node.ID, m node.Message)  { e.sends = append(e.sends, sent{to, m}) }
func (e *recEnv) Broadcast(m node.Message)         { e.sends = append(e.sends, sent{-1, m}) }
func (e *recEnv) Output(any)                       {}
func (e *recEnv) Halt()                            { e.halted = true }
func (e *recEnv) ChargeCompute(c node.ComputeCost) {}

func TestMuteHaltsAndSendsNothing(t *testing.T) {
	env := &recEnv{n: 4}
	m := &byz.Mute{}
	m.Init(env)
	m.Deliver(1, &binaa.Echo1{Round: 1, Init: true})
	if !env.halted {
		t.Error("Mute did not halt at Init")
	}
	if len(env.sends) != 0 {
		t.Errorf("Mute sent %d messages", len(env.sends))
	}
}

func TestEquivocatorSplitsChecksByParity(t *testing.T) {
	const n = 7
	a, b := binaa.IID{Level: 1, K: 3}, binaa.IID{Level: 1, K: 4}
	env := &recEnv{n: n}
	e := &byz.Equivocator{CheckA: a, CheckB: b}
	e.Init(env)
	e.Deliver(1, &binaa.Echo1{Round: 1, Init: true})
	if len(env.sends) != n {
		t.Fatalf("sent %d messages, want one per slot (%d)", len(env.sends), n)
	}
	for i, s := range env.sends {
		if s.to != node.ID(i) {
			t.Fatalf("message %d went to %d, want slot %d", i, s.to, i)
		}
		e1, ok := s.m.(*binaa.Echo1)
		if !ok || !e1.Init || e1.Round != 1 || len(e1.Vals) != 1 {
			t.Fatalf("slot %d: got %#v, want a round-1 init bundle with one entry", i, s.m)
		}
		want := a
		if i%2 == 1 {
			want = b
		}
		if v := e1.Vals[0]; v.ID != want || v.Round != 1 || v.V != 1 {
			t.Errorf("slot %d: entry %+v, want input 1 on %v", i, v, want)
		}
	}
}

func TestSpammerAnswersInitBundlesInsideItsBounds(t *testing.T) {
	const levels, kmin, kmax, per = 3, -2, 5, 4
	env := &recEnv{n: 4}
	s := &byz.Spammer{Rng: rand.New(rand.NewSource(1)), Levels: levels, KMin: kmin, KMax: kmax, PerRound: per}
	s.Init(env)
	s.Deliver(1, &binaa.Echo1{Round: 2})
	s.Deliver(1, &binaa.Echo2{Round: 2, Zeros: true})
	if len(env.sends) != 0 {
		t.Fatalf("answered a non-init message with %d sends", len(env.sends))
	}
	seenK := map[int32]bool{}
	seenL := map[uint8]bool{}
	const bundles = 200
	for r := 1; r <= bundles; r++ {
		s.Deliver(2, &binaa.Echo1{Round: uint16(r), Init: true})
		last := env.sends[len(env.sends)-1]
		e1, ok := last.m.(*binaa.Echo1)
		if last.to != -1 || !ok || e1.Init || len(e1.Vals) != per {
			t.Fatalf("bundle %d: got %#v to %d, want a broadcast of %d explicit entries", r, last.m, last.to, per)
		}
		for _, v := range e1.Vals {
			if v.ID.K < kmin || v.ID.K > kmax || int(v.ID.Level) > levels || v.Round != uint16(r) || v.V != 1 {
				t.Fatalf("bundle %d: entry %+v outside K∈[%d,%d], levels 0…%d, round %d", r, v, kmin, kmax, levels, r)
			}
			seenK[v.ID.K], seenL[v.ID.Level] = true, true
		}
	}
	if len(env.sends) != bundles {
		t.Errorf("%d sends for %d init bundles", len(env.sends), bundles)
	}
	// The bounds are inclusive: both ends of each range are drawn.
	if !seenK[kmin] || !seenK[kmax] || !seenL[0] || !seenL[levels] {
		t.Errorf("draws never reached a bound: K %v, levels %v", seenK, seenL)
	}
}

func TestEcho2ForgerSplitsValuesByParity(t *testing.T) {
	const n, rounds = 5, 3
	target := binaa.IID{Level: 2, K: 9}
	env := &recEnv{n: n}
	f := &byz.Echo2Forger{Target: target, Rounds: rounds}
	f.Init(env)
	f.Deliver(1, &binaa.Echo1{Round: 1, Init: true})
	type key struct {
		to    node.ID
		round uint16
		echo2 bool
	}
	got := map[key]int{}
	for _, s := range env.sends {
		var vals []binaa.IVal
		k := key{to: s.to}
		switch m := s.m.(type) {
		case *binaa.Echo1:
			vals = m.Vals
		case *binaa.Echo2:
			vals, k.echo2 = m.Vals, true
		default:
			t.Fatalf("unexpected %T", s.m)
		}
		if len(vals) != 1 || vals[0].ID != target {
			t.Fatalf("to %d: entries %+v, want one on %v", s.to, vals, target)
		}
		want := 0.0
		if s.to%2 == 0 {
			want = 1
		}
		if vals[0].V != want {
			t.Errorf("to %d: value %g, want %g", s.to, vals[0].V, want)
		}
		k.round = vals[0].Round
		got[k]++
	}
	for to := node.ID(0); to < n; to++ {
		for r := uint16(1); r <= rounds; r++ {
			for _, echo2 := range []bool{false, true} {
				if c := got[key{to, r, echo2}]; c != 1 {
					t.Errorf("slot %d round %d echo2=%v: %d messages, want 1", to, r, echo2, c)
				}
			}
		}
	}
	if len(env.sends) != 2*n*rounds {
		t.Errorf("%d sends, want %d", len(env.sends), 2*n*rounds)
	}
}
