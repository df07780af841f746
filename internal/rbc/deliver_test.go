package rbc_test

import (
	"fmt"
	"math"
	"testing"

	"delphi/internal/node"
	"delphi/internal/rbc"
)

// recEnv is a node.Env that logs what a process emits, in order.
type recEnv struct {
	n, f int
	log  []string
}

func (e *recEnv) Self() node.ID                   { return 0 }
func (e *recEnv) N() int                          { return e.n }
func (e *recEnv) F() int                          { return e.f }
func (e *recEnv) Send(to node.ID, m node.Message) { e.emit(fmt.Sprintf("send %d", to), m) }
func (e *recEnv) Broadcast(m node.Message)        { e.emit("broadcast", m) }
func (e *recEnv) Output(any)                      {}
func (e *recEnv) Halt()                           {}
func (e *recEnv) ChargeCompute(node.ComputeCost)  {}

func (e *recEnv) emit(how string, m node.Message) {
	e.log = append(e.log, fmt.Sprintf("%s %T%+v", how, m, m))
}

// TestDeliverOutOfRange: a message naming an initiator outside [0, n) or a
// tag outside the engine's range, or sent from outside [0, n), is dropped with no panic, no allocation and
// nothing emitted, and a repeated vote counts once.
func TestDeliverOutOfRange(t *testing.T) {
	const n, f, tags = 7, 2, 3
	p := []byte("v")
	// Each case builds its i-th message, so a message that did make state
	// would make new state on every run.
	cases := []struct {
		name string
		msg  func(i int) (node.ID, node.Message)
	}{
		{"init from n+i", func(i int) (node.ID, node.Message) { return node.ID(n + i), &rbc.Init{Payload: p} }},
		{"init tag past range", func(i int) (node.ID, node.Message) { return 1, &rbc.Init{Tag: uint32(tags + i), Payload: p} }},
		{"echo initiator n+i", func(i int) (node.ID, node.Message) { return 1, &rbc.Echo{Initiator: node.ID(n + i), Payload: p} }},
		{"echo negative initiator", func(i int) (node.ID, node.Message) { return 1, &rbc.Echo{Initiator: node.ID(-1 - i), Payload: p} }},
		{"echo tag past range", func(i int) (node.ID, node.Message) { return 1, &rbc.Echo{Tag: uint32(tags + i), Payload: p} }},
		{"echo max tag", func(i int) (node.ID, node.Message) { return node.ID(i % n), &rbc.Echo{Tag: math.MaxUint32, Payload: p} }},
		{"echo from n+i", func(i int) (node.ID, node.Message) { return node.ID(n + i), &rbc.Echo{Payload: p} }},
		{"ready initiator n+i", func(i int) (node.ID, node.Message) { return 1, &rbc.Ready{Initiator: node.ID(n + i), Payload: p} }},
		{"ready tag past range", func(i int) (node.ID, node.Message) { return 1, &rbc.Ready{Tag: uint32(tags + i), Payload: p} }},
		{"ready from n+i", func(i int) (node.ID, node.Message) { return node.ID(n + i), &rbc.Ready{Payload: p} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := &recEnv{n: n, f: f}
			eng := rbc.NewEngine(node.Config{N: n, F: f}, env, tags, func(rbc.Key, []byte) { t.Error("delivered") })
			const runs = 100
			froms := make([]node.ID, runs+1) // AllocsPerRun makes one warm-up call
			msgs := make([]node.Message, runs+1)
			for i := range msgs {
				froms[i], msgs[i] = c.msg(i)
			}
			i := 0
			if a := testing.AllocsPerRun(runs, func() { eng.Handle(froms[i], msgs[i]); i++ }); a != 0 {
				t.Errorf("%.1f allocations per dropped message", a)
			}
			if len(env.log) != 0 {
				t.Errorf("a dropped message emitted %q", env.log)
			}
		})
	}
	t.Run("duplicate vote counts once", func(t *testing.T) {
		env := &recEnv{n: n, f: f}
		eng := rbc.NewEngine(node.Config{N: n, F: f}, env, tags, func(rbc.Key, []byte) {})
		echo := &rbc.Echo{Initiator: 2, Tag: 1, Payload: p}
		for i := 0; i < n; i++ {
			eng.Handle(3, echo)
		}
		for from := node.ID(0); from < n-f-1; from++ {
			eng.Handle(from, echo)
		}
		if len(env.log) != 0 {
			t.Fatalf("n-t-1 distinct ECHOs and repeats sent %q", env.log)
		}
		eng.Handle(n-1, echo)
		if len(env.log) != 1 {
			t.Fatalf("the (n-t)-th distinct ECHO sent %q, want one READY", env.log)
		}
	})
}

// TestSpamVotesAreBounded: an ECHO from one sender for 10 000 distinct
// payloads of one instance makes at most one further tally, not one per
// payload (each searched linearly by the next), and nothing is sent.
func TestSpamVotesAreBounded(t *testing.T) {
	const n, f, spam = 7, 2, 10_000
	env := &recEnv{n: n, f: f}
	eng := rbc.NewEngine(node.Config{N: n, F: f}, env, 1, func(rbc.Key, []byte) { t.Error("delivered") })
	// AllocsPerRun makes one warm-up call, on initiator 0's instance; the
	// measured call spams initiator 1's. Each starts with another sender's
	// ECHO, so the spam is all further payloads.
	msgs := make([][]node.Message, 2)
	for i := range msgs {
		msgs[i] = []node.Message{&rbc.Echo{Initiator: node.ID(i), Payload: []byte("first")}}
		for j := range spam {
			msgs[i] = append(msgs[i], &rbc.Echo{Initiator: node.ID(i), Payload: fmt.Appendf(nil, "p%d", j)})
		}
	}
	i := 0
	a := testing.AllocsPerRun(1, func() {
		eng.Handle(0, msgs[i][0])
		for _, m := range msgs[i][1:] {
			eng.Handle(1, m)
		}
		i++
	})
	if a > 2 {
		t.Errorf("%.0f allocations for %d distinct-payload ECHOs from one sender, want ≤ 2 (one further tally)", a, spam)
	}
	if len(env.log) != 0 {
		t.Errorf("one sender's ECHOs sent %q", env.log)
	}
}

// TestRBCRowAllocs: the first ECHO and the first READY of every instance in
// one tag row cost at most two allocations in total (the row's instances and
// its voter slab), not one or more per instance.
func TestRBCRowAllocs(t *testing.T) {
	const n, f, runs = 16, 5, 20
	env := &recEnv{n: n, f: f}
	eng := rbc.NewEngine(node.Config{N: n, F: f}, env, runs+1, func(rbc.Key, []byte) { t.Error("delivered") })
	p := []byte("v")
	// msgs[tag] is one sender's ECHO and READY for every instance of row tag
	// (AllocsPerRun makes one warm-up call, on row 0).
	msgs := make([][]node.Message, runs+1)
	for tag := range msgs {
		for i := range n {
			msgs[tag] = append(msgs[tag],
				&rbc.Echo{Initiator: node.ID(i), Tag: uint32(tag), Payload: p},
				&rbc.Ready{Initiator: node.ID(i), Tag: uint32(tag), Payload: p})
		}
	}
	tag := 0
	a := testing.AllocsPerRun(runs, func() {
		for _, m := range msgs[tag] {
			eng.Handle(1, m)
		}
		tag++
	})
	if a > 2 {
		t.Errorf("%.1f allocations for a row's first ECHOs and READYs, want ≤ 2", a)
	}
	if len(env.log) != 0 {
		t.Errorf("one sender's votes emitted %q", env.log)
	}
}

// oracle is the map-keyed Bracha counting the engine replaced: instances by
// Key, votes by payload string, voters in a map. It carries the engine's
// drop rule and its first-vote rule (a sender's first ECHO and first READY in
// an instance count, for whatever payload), so the two must emit and deliver
// the same, in the same order.
type oracle struct {
	cfg   node.Config
	tags  uint32
	env   node.Env
	deliv func(rbc.Key, []byte)
	insts map[rbc.Key]*oracleInst
}

type oracleInst struct {
	echoed, readied, delivered bool
	echoes, readies            map[string]map[node.ID]bool
}

func (o *oracle) inst(from node.ID, k rbc.Key) *oracleInst {
	if uint(from) >= uint(o.cfg.N) || uint(k.Initiator) >= uint(o.cfg.N) || k.Tag >= o.tags {
		return nil
	}
	x := o.insts[k]
	if x == nil {
		x = &oracleInst{echoes: map[string]map[node.ID]bool{}, readies: map[string]map[node.ID]bool{}}
		o.insts[k] = x
	}
	return x
}

// add records from's vote for p, returning p's voter count, or 0 if from has
// voted for any payload already.
func add(votes map[string]map[node.ID]bool, from node.ID, p []byte) int {
	for _, s := range votes {
		if s[from] {
			return 0
		}
	}
	s := votes[string(p)]
	if s == nil {
		s = map[node.ID]bool{}
		votes[string(p)] = s
	}
	if s[from] {
		return 0
	}
	s[from] = true
	return len(s)
}

func (o *oracle) handle(from node.ID, m node.Message) {
	switch m := m.(type) {
	case *rbc.Init:
		if x := o.inst(from, rbc.Key{Initiator: from, Tag: m.Tag}); x != nil && !x.echoed {
			x.echoed = true
			o.env.Broadcast(&rbc.Echo{Initiator: from, Tag: m.Tag, Payload: m.Payload})
		}
	case *rbc.Echo:
		x := o.inst(from, rbc.Key{Initiator: m.Initiator, Tag: m.Tag})
		if x != nil && add(x.echoes, from, m.Payload) >= o.cfg.Quorum() && !x.readied {
			x.readied = true
			o.env.Broadcast(&rbc.Ready{Initiator: m.Initiator, Tag: m.Tag, Payload: m.Payload})
		}
	case *rbc.Ready:
		k := rbc.Key{Initiator: m.Initiator, Tag: m.Tag}
		x := o.inst(from, k)
		if x == nil {
			return
		}
		c := add(x.readies, from, m.Payload)
		if c >= o.cfg.F+1 && !x.readied {
			x.readied = true
			o.env.Broadcast(&rbc.Ready{Initiator: m.Initiator, Tag: m.Tag, Payload: m.Payload})
		}
		if c >= 2*o.cfg.F+1 && !x.delivered {
			x.delivered = true
			o.deliv(k, m.Payload)
		}
	}
}

// FuzzRBCCounts hands the engine and the oracle one byte-driven stream of
// INITs, ECHOs and READYs — repeats, two payloads per instance, equal
// payloads in distinct slices, votes ahead of their INIT, and initiators,
// tags and senders out of range — and requires the same emissions and
// deliveries, in order.
func FuzzRBCCounts(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0x10, 0, 0, 0x11, 0, 0, 0x12, 0, 0, 0x13, 0, 0, 0x14, 0, 0, 0x20, 0, 0, 0x21, 0, 0, 0x22, 0, 0})
	f.Add([]byte{0x21, 0x05, 1, 0x22, 0x05, 1, 0x23, 0x05, 0, 0x24, 0x05, 1, 0x25, 0x05, 1, 0x01, 0x05, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n, fault, tags = 7, 2, 2
		cfg := node.Config{N: n, F: fault}
		logs := [2]*recEnv{{n: n, f: fault}, {n: n, f: fault}}
		deliv := func(e *recEnv) func(rbc.Key, []byte) {
			return func(k rbc.Key, p []byte) { e.log = append(e.log, fmt.Sprintf("deliver %+v %q", k, p)) }
		}
		eng := rbc.NewEngine(cfg, logs[0], tags, deliv(logs[0]))
		orc := &oracle{cfg: cfg, tags: tags, env: logs[1], deliv: deliv(logs[1]), insts: map[rbc.Key]*oracleInst{}}
		// The last is "a" again in its own backing array: equal payloads that
		// are not the same slice take the byte comparison.
		payloads := [][]byte{[]byte("a"), []byte("b"), nil, []byte("a\x00"), []byte("a")}
		for len(data) >= 3 {
			// Byte 0: kind (bits 4-5) and sender (low nibble, mod n+1); byte
			// 1: initiator (low nibble, mod n+1) and tag (high nibble, mod
			// tags+1); byte 2: payload (mod 5).
			from := node.ID(int(data[0]&15) % (n + 1))
			k := rbc.Key{Initiator: node.ID(int(data[1]&15) % (n + 1)), Tag: uint32(data[1]>>4) % (tags + 1)}
			p := payloads[data[2]%5]
			var m node.Message
			switch data[0] >> 4 & 3 {
			case 0:
				m = &rbc.Init{Tag: k.Tag, Payload: p}
			case 1, 3:
				m = &rbc.Echo{Initiator: k.Initiator, Tag: k.Tag, Payload: p}
			case 2:
				m = &rbc.Ready{Initiator: k.Initiator, Tag: k.Tag, Payload: p}
			}
			data = data[3:]
			eng.Handle(from, m)
			orc.handle(from, m)
			if len(logs[0].log) != len(logs[1].log) {
				t.Fatalf("after %T%+v from %d:\nengine %q\noracle %q", m, m, from, logs[0].log, logs[1].log)
			}
		}
		for i := range logs[0].log {
			if logs[0].log[i] != logs[1].log[i] {
				t.Fatalf("event %d: engine %q, oracle %q", i, logs[0].log[i], logs[1].log[i])
			}
		}
	})
}
