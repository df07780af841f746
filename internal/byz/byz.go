// Package byz implements Byzantine node behaviours used in tests and in the
// experiment harness' failure-injection runs. Every behaviour is a
// node.Process, so it can be dropped into any slot of a simulation in place
// of an honest protocol instance.
//
// The adversary model matches the paper's: up to t nodes fully controlled,
// the network may reorder and delay but not drop messages, and channels are
// authenticated (a Byzantine node cannot forge another node's sender
// identity). This package is the node half of that model; the network half
// — adversarial scheduling — lives in internal/netadv, whose named
// sim.DelayRule presets compose freely with these behaviours (a RunSpec can
// carry both a Byzantine count and an Adversary).
package byz

import (
	"math/rand"

	"delphi/internal/binaa"
	"delphi/internal/node"
)

// Equivocator attacks the BinAA layer: it sends conflicting round-1 init
// bundles — input 1 on CheckA to one half of the network and input 1 on
// CheckB to the other half — then goes quiet. This attacks the weak
// uniformity of BV-broadcast directly.
type Equivocator struct {
	// CheckA and CheckB are the two instances the equivocator claims.
	CheckA binaa.IID
	CheckB binaa.IID
}

var _ node.Process = (*Equivocator)(nil)

// Init implements node.Process.
func (e *Equivocator) Init(env node.Env) {
	for i := 0; i < env.N(); i++ {
		id := e.CheckA
		if i%2 == 1 {
			id = e.CheckB
		}
		env.Send(node.ID(i), &binaa.Echo1{
			Round: 1,
			Init:  true,
			Vals:  []binaa.IVal{{ID: id, Round: 1, V: 1}},
		})
	}
}

// Deliver implements node.Process.
func (*Equivocator) Deliver(node.ID, node.Message) {}

// Spammer floods random checkpoint instances with random echo values in an
// attempt to bloat honest state and skew weighted averages.
type Spammer struct {
	// Rng drives the spam pattern; required.
	Rng *rand.Rand
	// Levels bounds the levels spammed.
	Levels int
	// KMin and KMax bound the checkpoint indices spammed.
	KMin, KMax int32
	// PerRound is how many junk instances to spam per received init bundle.
	PerRound int

	env node.Env
}

var _ node.Process = (*Spammer)(nil)

// Init implements node.Process.
func (s *Spammer) Init(env node.Env) { s.env = env }

// Deliver implements node.Process.
func (s *Spammer) Deliver(_ node.ID, m node.Message) {
	e1, ok := m.(*binaa.Echo1)
	if !ok || !e1.Init {
		return
	}
	vals := make([]binaa.IVal, 0, s.PerRound)
	for i := 0; i < s.PerRound; i++ {
		span := int64(s.KMax - s.KMin + 1)
		k := s.KMin + int32(s.Rng.Int63n(span))
		vals = append(vals, binaa.IVal{
			ID:    binaa.IID{Level: uint8(s.Rng.Intn(s.Levels + 1)), K: k},
			Round: e1.Round,
			V:     1,
		})
	}
	s.env.Broadcast(&binaa.Echo1{Vals: vals})
}

// Echo2Forger sends conflicting explicit ECHO2 votes for a target instance
// to different nodes, probing the once-per-sender accounting.
type Echo2Forger struct {
	// Target is the attacked instance.
	Target binaa.IID
	// Rounds is how many rounds to attack.
	Rounds int
}

var _ node.Process = (*Echo2Forger)(nil)

// Init implements node.Process.
func (f *Echo2Forger) Init(env node.Env) {
	for r := 1; r <= f.Rounds; r++ {
		for i := 0; i < env.N(); i++ {
			v := 0.0
			if i%2 == 0 {
				v = 1.0
			}
			env.Send(node.ID(i), &binaa.Echo2{
				Vals: []binaa.IVal{{ID: f.Target, Round: uint16(r), V: v}},
			})
			env.Send(node.ID(i), &binaa.Echo1{
				Vals: []binaa.IVal{{ID: f.Target, Round: uint16(r), V: v}},
			})
		}
	}
}

// Deliver implements node.Process.
func (*Echo2Forger) Deliver(node.ID, node.Message) {}
