package binaa

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"delphi/internal/node"
	"delphi/internal/sim"
)

// debugState dumps the engine's per-instance per-round progress.
func (e *Engine) debugState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "round=%d done=%v insts=%d\n", e.round, e.done, len(e.insts))
	for r := 1; r <= len(e.rs); r++ {
		fmt.Fprintf(&b, " r%d: init=%d zeros=%d sentZeros=%v\n", r, e.rs[r-1].initCount, e.rs[r-1].zerosCount, e.rs[r-1].initCount >= e.cfg.Quorum())
	}
	ids := make([]IID, 0, len(e.insts))
	for id := range e.insts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Level != ids[j].Level {
			return ids[i].Level < ids[j].Level
		}
		return ids[i].K < ids[j].K
	})
	for _, id := range ids {
		x := e.insts[id]
		fmt.Fprintf(&b, " %v state=%g:", id, x.state)
		for r := 1; r <= len(e.rs); r++ {
			ir, t := e.rs[r-1].insts[x.idx], e.effective(x, r)
			e1 := ""
			for _, s := range t.echo1.sets {
				e1 += fmt.Sprintf(" %g:%d", s.v, s.count)
			}
			e2 := ""
			for _, s := range t.echo2.sets {
				e2 += fmt.Sprintf(" %g:%d", s.v, s.count)
			}
			fmt.Fprintf(&b, " [r%d e1{%s} e2{%s} dec=%v/%g sentE2=%v]", r, e1, e2, ir.decided, ir.decision, ir.sentEcho2)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// effective returns x's round-r tallies as if every vote had been counted
// one at a time: the materialised tally, or a rebuild of the implicit one
// that leaves the engine as it was.
func (e *Engine) effective(x *inst, r int) *tally {
	ir, quiet := e.rs[r-1].insts[x.idx], e.rs[r-1].quiet
	defer func() { e.rs[r-1].quiet = quiet }() // the copy's materialise must not end the round's quiet
	return e.materialise(&ir, r, x.idx)
}

// DebugState, Implicit and StoredBundle show the external test package what
// a delivery left behind: the whole tally dump, whether an instance's round-r
// tally is still implicit, and one slot of initBundles (entries is -1 for a
// nil slot; resolved means every entry's ref names an instance).
func (e *Engine) DebugState() string { return e.debugState() }

func (e *Engine) Implicit(r int, id IID) bool { return e.rs[r-1].insts[e.insts[id].idx].t == nil }

// Quiet reports condition (3) of the package comment's quiet rounds for
// round r; Clean reports whether from's round-r bundle has arrived and
// whether it changed no tally (condition (2) for its round-(r+1) successor).
func (e *Engine) Quiet(r int) bool { return e.rs[r-1].quiet }

func (e *Engine) Clean(r int, from node.ID) (seen, clean bool) {
	return e.rs[r-1].initSeen.Has(from), e.rs[r-1].clean.Has(from)
}

func (e *Engine) StoredBundle(r int, from node.ID) (entries int, resolved bool) {
	b := e.rs[r-1].initBundles[from]
	if b == nil {
		return -1, false
	}
	for _, a := range b {
		if a.ref == 0 || int(a.ref) > len(e.instList) {
			return len(b), false
		}
	}
	return len(b), true
}

// TestBundleDuplicateListing pins "first listing wins" inside one bundle: an
// instance a sender names twice gets that sender's init vote once, with the
// first value, and the sender's zeros bundle reads the same first value —
// whether the repeat sits in a full bundle or in a compressed bundle's
// NewVals, and whichever of bundle and zeros bundle arrives first. The guard
// is the bundle's gen stamp; without it the second listing votes too. The
// probe reads effective votes, so it holds whether the tallies it meets are
// implicit or materialised.
func TestBundleDuplicateListing(t *testing.T) {
	cfg := Config{Config: node.Config{N: 4, F: 1}, Rounds: 8}
	e, err := NewEngine(cfg, map[IID]float64{{K: 50}: 1}, func(map[IID]float64) {})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(&SinkEnv{Nodes: 4, Faults: 1})
	hiFirst, loFirst := IID{K: 60}, IID{K: 61} // listed (1, 0) and (0, 1)
	dup := func(r uint16, vHi, vLo float64) []IVal {
		return []IVal{{ID: hiFirst, Round: r, V: vHi}, {ID: loFirst, Round: r, V: vLo}}
	}
	// Sender 1: full bundle, then zeros. Sender 2: zeros, then full bundle.
	full := &Echo1{Round: 1, Init: true, Vals: append(dup(1, 1, 0), dup(1, 0, 1)...)}
	e.HandleEcho1(1, full)
	e.HandleEcho2(1, &Echo2{Round: 1, Zeros: true})
	e.HandleEcho2(2, &Echo2{Round: 1, Zeros: true})
	e.HandleEcho1(2, full)
	// Sender 3: a clean round-1 base, then a round-2 compressed bundle whose
	// NewVals repeat both base entries with the other value, then both zeros.
	e.HandleEcho1(3, &Echo1{Round: 1, Init: true, Vals: dup(1, 1, 0)})
	e.HandleEcho1C(3, &Echo1C{Round: 2, PrevCount: 2, Deltas: packNibbles([]uint8{symC, symC}), NewVals: dup(2, 0, 1)})
	e.HandleEcho2(3, &Echo2{Round: 1, Zeros: true})
	e.HandleEcho2(3, &Echo2{Round: 2, Zeros: true})
	if n, ok := e.StoredBundle(2, 3); n != 4 || !ok {
		t.Fatalf("sender 3's round-2 bundle: %d entries (resolved=%v), want the 4 listed", n, ok)
	}

	for _, c := range []struct {
		from node.ID
		r    int
	}{{1, 1}, {2, 1}, {3, 1}, {3, 2}} {
		for _, want := range []struct {
			id IID
			v  float64
		}{{hiFirst, 1}, {loFirst, 0}} {
			tl := e.effective(e.insts[want.id], c.r)
			for _, s := range tl.echo1.sets {
				if s.set.Has(c.from) != (s.v == want.v) {
					t.Errorf("%v round %d: sender %d's init vote for %g counted=%v, want only %g",
						want.id, c.r, c.from, s.v, s.set.Has(c.from), want.v)
				}
			}
			zero := tl.echo2.find(0)
			if got := zero != nil && zero.set.Has(c.from); got != (want.v == 0) {
				t.Errorf("%v round %d: sender %d's zeros bundle applied=%v, first listing is %g",
					want.id, c.r, c.from, got, want.v)
			}
		}
	}
}

func TestDeadlockRepro(t *testing.T) {
	n, f := 7, 2
	cfg := Config{Config: node.Config{N: n, F: f}, Rounds: 13}
	// 5 honest (crash nodes 1 and 4), checkpoint pattern from the Delphi
	// crash-fault test at level 0 only.
	ones := map[int][]int32{
		0: {250, 251},
		2: {251, 252},
		3: {250, 251},
		5: {251, 252},
		6: {250, 251},
	}
	procs := make([]node.Process, n)
	engines := make([]*Engine, n)
	for i, ks := range ones {
		in := make(map[IID]float64)
		for _, k := range ks {
			in[IID{K: k}] = 1
		}
		p, err := NewProcess(cfg, in)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
		engines[i] = p.eng
	}
	r, err := sim.NewRunner(node.Config{N: n, F: f}, sim.Local(), 42, procs)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	stuck := false
	for i, e := range engines {
		if e == nil {
			continue
		}
		if !e.Done() {
			stuck = true
			t.Logf("node %d STUCK:\n%s", i, e.debugState())
		}
	}
	if stuck {
		t.Fatalf("deadlock after %d events, vtime=%v", res.Events, res.Time)
	}
}
