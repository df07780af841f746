package binaa_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"delphi/internal/binaa"
	"delphi/internal/byz"
	"delphi/internal/core"
	"delphi/internal/node"
	"delphi/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the BinAA transcript golden file")

// transcriptCell is one configuration of the transcript corpus.
type transcriptCell struct {
	n, f   int
	fault  string // clean | spam | equivocate | crash | laggard | divergent | recant
	noComp bool
}

func (c transcriptCell) String() string {
	comp := "comp"
	if c.noComp {
		comp = "nocomp"
	}
	return fmt.Sprintf("n=%d/f=%d/%s/%s", c.n, c.f, c.fault, comp)
}

// transcriptCells lists the corpus. The laggard cells come after the rest so
// that the golden file's first 24 lines keep their places, the divergent
// cells after those so that its first 30 do, and the recant cells last so
// that its first 36 do.
func transcriptCells() []transcriptCell {
	sizes := [][2]int{{4, 1}, {7, 2}, {16, 5}}
	var cells []transcriptCell
	for _, nf := range sizes {
		for _, fault := range []string{"clean", "spam", "equivocate", "crash"} {
			for _, noComp := range []bool{false, true} {
				cells = append(cells, transcriptCell{n: nf[0], f: nf[1], fault: fault, noComp: noComp})
			}
		}
	}
	for _, fault := range []string{"laggard", "divergent", "recant"} {
		for _, nf := range sizes {
			for _, noComp := range []bool{false, true} {
				cells = append(cells, transcriptCell{n: nf[0], f: nf[1], fault: fault, noComp: noComp})
			}
		}
	}
	return cells
}

// msgRound is the round a BinAA message belongs to: the round it opens or
// covers, or its first entry's for the per-entry kinds.
func msgRound(m node.Message) int {
	switch msg := m.(type) {
	case *binaa.Echo1:
		if !msg.Init && len(msg.Vals) > 0 {
			return int(msg.Vals[0].Round)
		}
		return int(msg.Round)
	case *binaa.Echo2:
		if !msg.Zeros && len(msg.Vals) > 0 {
			return int(msg.Vals[0].Round)
		}
		return int(msg.Round)
	case *binaa.Echo1C:
		return int(msg.Round)
	case *binaa.Echo2C:
		return int(msg.Round)
	}
	return 0
}

// laggard runs an honest BinAA process two rounds behind on the wire: what
// the process sends for round r is held until the node first hears a
// round-(r+2) message, then released in order, followed by an explicit
// ECHO2 at round r for an instance nobody ever announced. The honest nodes
// have left round r by then, so they receive late init bundles, compressed
// bundles whose base round is behind them, late zeros bundles, bitmaps and
// explicit votes, and activate an instance from a vote for a left round.
type laggard struct {
	inner node.Process
	env   node.Env
	heard int
	held  []node.Message
}

// lagEnv holds the process's broadcasts (a BinAA process sends nothing else).
type lagEnv struct {
	node.Env
	lag *laggard
}

func (e *lagEnv) Broadcast(m node.Message) { e.lag.held = append(e.lag.held, m) }

func (l *laggard) Init(env node.Env) {
	l.env = env
	l.inner.Init(&lagEnv{Env: env, lag: l})
}

func (l *laggard) Deliver(from node.ID, m node.Message) {
	l.inner.Deliver(from, m)
	if r := msgRound(m); r > l.heard {
		for released := l.heard - 1; released <= r-2; released++ {
			l.release(released)
		}
		l.heard = r
	}
}

// release sends the held messages of round r (and, defensively, of any
// earlier one), keeping the rest in order.
func (l *laggard) release(r int) {
	if r < 1 {
		return
	}
	kept := l.held[:0]
	for _, m := range l.held {
		if msgRound(m) > r {
			kept = append(kept, m)
		} else {
			l.env.Broadcast(m)
		}
	}
	clear(l.held[len(kept):])
	l.held = kept
	stray := binaa.IID{Level: 1, K: int32(-1000 - r)}
	l.env.Broadcast(&binaa.Echo2{Vals: []binaa.IVal{{ID: stray, Round: uint16(r), V: 1}}})
}

// divergent breaks, every round, the agreement an honest engine counts
// implicitly. On first hearing of round r it sends an amplification echo for
// a at round r ahead of its round-r bundle, then a full bundle that lists a
// at 1, b at 1/2 (a value no honest node announces there) and z at 0 (an
// instance no honest node holds), a bitmap with a bit on every entry — z's
// zero-listed one included — and its zeros bundle.
type divergent struct {
	a, b, z binaa.IID
	env     node.Env
	heard   int
}

func (d *divergent) Init(env node.Env) { d.env = env }

func (d *divergent) Deliver(_ node.ID, m node.Message) {
	r := msgRound(m)
	if r <= d.heard {
		return
	}
	d.heard = r
	rr := uint16(r)
	d.env.Broadcast(&binaa.Echo1{Vals: []binaa.IVal{{ID: d.a, Round: rr, V: 1}}})
	d.env.Broadcast(&binaa.Echo1{Round: rr, Init: true, Vals: []binaa.IVal{
		{ID: d.a, Round: rr, V: 1}, {ID: d.b, Round: rr, V: 0.5}, {ID: d.z, Round: rr, V: 0},
	}})
	d.env.Broadcast(&binaa.Echo2C{Round: rr, Bits: []byte{0b111}})
	d.env.Broadcast(&binaa.Echo2{Round: rr, Zeros: true})
}

// recant first votes with the honest nodes and then goes back on it, at two
// instances every honest node holds at 1, so that u is 1 there in every
// round. On first hearing of round r it sends a full bundle listing a and b
// at 1 and a bitmap over both: votes an honest engine counts without
// materialising a tally. On first hearing a round-r ECHO2 it sends an
// explicit ECHO2 for a at 1/2, which the engine must ignore after the
// bitmap's vote, and an amplification echo for b at 1/2; each materialises
// the tally it reaches.
type recant struct {
	a, b            binaa.IID
	env             node.Env
	heard, recanted int
}

func (d *recant) Init(env node.Env) { d.env = env }

func (d *recant) Deliver(_ node.ID, m node.Message) {
	r := msgRound(m)
	rr := uint16(r)
	if r > d.heard {
		d.heard = r
		d.env.Broadcast(&binaa.Echo1{Round: rr, Init: true, Vals: []binaa.IVal{{ID: d.a, Round: rr, V: 1}, {ID: d.b, Round: rr, V: 1}}})
		d.env.Broadcast(&binaa.Echo2C{Round: rr, Bits: []byte{0b11}})
	}
	switch m.(type) {
	case *binaa.Echo2, *binaa.Echo2C:
		if r > d.recanted {
			d.recanted = r
			d.env.Broadcast(&binaa.Echo2{Vals: []binaa.IVal{{ID: d.a, Round: rr, V: 0.5}}})
			d.env.Broadcast(&binaa.Echo1{Vals: []binaa.IVal{{ID: d.b, Round: rr, V: 0.5}}})
		}
	}
}

// settledIDs are the instances every one of the first k nodes holds at 1,
// sorted by (level, K).
func settledIDs(p core.Params, inputs []float64, k int) []binaa.IID {
	var ids []binaa.IID
	for id := range delphiInputs(p, inputs[0]) {
		held := true
		for _, v := range inputs[1:k] {
			_, ok := delphiInputs(p, v)[id]
			held = held && ok
		}
		if held {
			ids = append(ids, id)
		}
	}
	sortIDs(ids)
	return ids
}

// sortIDs orders instances by (level, K).
func sortIDs(ids []binaa.IID) {
	slices.SortFunc(ids, func(a, b binaa.IID) int {
		if a.Level != b.Level {
			return int(a.Level) - int(b.Level)
		}
		return int(a.K) - int(b.K)
	})
}

// transcriptParams is Delphi's parameterisation for the corpus: six levels
// and inputs spread over most of Δ, so every node runs a few dozen
// checkpoints whose states split, amplify and take the explicit-ECHO2 path.
var transcriptParams = core.Params{S: 0, E: 100000, Rho0: 2, Delta: 64, Eps: 2}

// recorder wraps a process and hashes everything it sends, in order.
type recorder struct {
	inner node.Process
	h     hash.Hash
	msgs  int
	bytes int
}

type recEnv struct {
	node.Env
	rec *recorder
}

func (e *recEnv) Send(to node.ID, m node.Message) {
	e.rec.record(int64(to), m)
	e.Env.Send(to, m)
}

func (e *recEnv) Broadcast(m node.Message) {
	e.rec.record(-1, m)
	e.Env.Broadcast(m)
}

func (r *recorder) record(to int64, m node.Message) {
	body, err := m.AppendBinary(nil)
	if err != nil {
		panic(err)
	}
	var hdr [17]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(to))
	hdr[8] = m.Type()
	binary.LittleEndian.PutUint64(hdr[9:], uint64(len(body)))
	r.h.Write(hdr[:])
	r.h.Write(body)
	r.msgs++
	r.bytes += len(body)
}

func (r *recorder) Init(env node.Env) { r.inner.Init(&recEnv{Env: env, rec: r}) }

func (r *recorder) Deliver(from node.ID, m node.Message) { r.inner.Deliver(from, m) }

// delphiInputs are core.Delphi's BinAA inputs for input v (Algorithm 2 lines
// 9–11). The corpus drives binaa.Process with them rather than core.Delphi
// itself: Delphi forwards every message to the engine unchanged and only
// aggregates the final weights, and the standalone process outputs the
// weights map this test wants to fingerprint.
func delphiInputs(p core.Params, v float64) map[binaa.IID]float64 {
	in := make(map[binaa.IID]float64)
	for l := 0; l <= p.Levels(); l++ {
		for _, k := range p.InputCheckpoints(l, v) {
			in[binaa.IID{Level: uint8(l), K: k}] = 1
		}
	}
	return in
}

func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// runTranscriptCell runs one cell and renders its golden line: total
// traffic, then per node a digest of its ordered outgoing messages
// (destination, Type(), AppendBinary(nil)) and a digest of its final weights
// (sorted, hex floats) plus the Delphi output aggregated from them.
func runTranscriptCell(t *testing.T, c transcriptCell) string {
	t.Helper()
	p := transcriptParams
	cfg := node.Config{N: c.n, F: c.f}
	seed := int64(1000*c.n + len(c.fault))
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]float64, c.n)
	for i := range inputs {
		inputs[i] = 41000 + 48*rng.Float64()
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range inputs[:c.n-c.f] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	bcfg := binaa.Config{Config: cfg, Rounds: p.Rounds(c.n), DisableCompression: c.noComp}
	procs := make([]node.Process, c.n)
	recs := make([]*recorder, c.n)
	for i := range procs {
		var inner node.Process
		switch faulty := c.fault != "clean" && i >= c.n-c.f; {
		case !faulty:
			bp, err := binaa.NewProcess(bcfg, delphiInputs(p, inputs[i]))
			if err != nil {
				t.Fatal(err)
			}
			inner = bp
		case c.fault == "spam":
			inner = &byz.Spammer{
				Rng:      rand.New(rand.NewSource(seed + int64(i))),
				Levels:   p.Levels(),
				KMin:     int32(math.Floor(lo/p.Rho0)) - 8,
				KMax:     int32(math.Ceil(hi/p.Rho0)) + 8,
				PerRound: 4,
			}
		case c.fault == "equivocate":
			inner = &byz.Equivocator{
				CheckA: binaa.IID{K: int32(math.Floor(lo / p.Rho0))},
				CheckB: binaa.IID{K: int32(math.Ceil(hi / p.Rho0))},
			}
		case c.fault == "divergent":
			k := int32(math.Floor(lo / p.Rho0))
			inner = &divergent{a: binaa.IID{K: k}, b: binaa.IID{K: int32(math.Ceil(hi / p.Rho0))}, z: binaa.IID{K: k - 5}}
		case c.fault == "recant":
			ids := settledIDs(p, inputs, c.n-c.f)
			if len(ids) == 0 {
				t.Fatalf("%v: no instance every honest node holds", c)
			}
			inner = &recant{a: ids[0], b: ids[len(ids)-1]}
		case c.fault == "laggard":
			bp, err := binaa.NewProcess(bcfg, delphiInputs(p, inputs[i]))
			if err != nil {
				t.Fatal(err)
			}
			inner = &laggard{inner: bp}
		default:
			continue // crashed
		}
		recs[i] = &recorder{inner: inner, h: sha256.New()}
		procs[i] = recs[i]
	}
	r, err := sim.NewRunner(cfg, sim.AWS(), seed, procs)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()

	var msgs, bytes int
	nodes := make([]string, 0, c.n)
	for i, rec := range recs {
		if rec == nil {
			nodes = append(nodes, "-")
			continue
		}
		msgs += rec.msgs
		bytes += rec.bytes
		digest := hex.EncodeToString(rec.h.Sum(nil)[:6])
		if _, honest := rec.inner.(*binaa.Process); !honest {
			nodes = append(nodes, digest)
			continue
		}
		out := res.Stats[i].Output
		if len(out) == 0 {
			t.Fatalf("%v: node %d produced no output", c, i)
		}
		weights := out[len(out)-1].(map[binaa.IID]float64)
		ids := make([]binaa.IID, 0, len(weights))
		for id := range weights {
			ids = append(ids, id)
		}
		sortIDs(ids)
		wh := sha256.New()
		for _, id := range ids {
			fmt.Fprintf(wh, "%v=%s\n", id, hexFloat(weights[id]))
		}
		agg := core.Aggregate(core.Config{Config: cfg, Params: p}, inputs[i], weights)
		fmt.Fprintf(wh, "out=%s\n", hexFloat(agg.Output))
		nodes = append(nodes, digest+":"+hex.EncodeToString(wh.Sum(nil)[:6]))
	}
	return fmt.Sprintf("%v msgs=%d bytes=%d nodes=%s", c, msgs, bytes, strings.Join(nodes, ","))
}

// TestTranscriptGolden is the engine's byte-identity gate. Every cell runs
// Delphi's BinAA workload on the simulator and fingerprints, per node, the
// exact sequence of messages it emitted and the weights it decided. The
// golden file was generated from the engine as it stood before the
// per-delivery path was rewritten (threshold-crossing re-checks, index-
// resolved bundles), so a pass certifies that the rewrite changed no emitted
// byte and no ordering — clean, under Byzantine spam and equivocation, with
// f crashes, with §II-C compression on and off. Regenerate with
// -update-golden only for a change that deliberately alters the protocol's
// messages.
func TestTranscriptGolden(t *testing.T) {
	var lines []string
	for _, c := range transcriptCells() {
		lines = append(lines, runTranscriptCell(t, c))
	}
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "golden_transcript.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cells)", path, len(lines))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to generate): %v", err)
	}
	if got == string(want) {
		return
	}
	wl := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wl) != len(lines) {
		t.Fatalf("cell count diverged: got %d, want %d lines", len(lines), len(wl))
	}
	for i := range lines {
		if lines[i] == wl[i] {
			continue
		}
		// Name the nodes whose transcript or weights moved.
		gn := strings.Split(lines[i][strings.Index(lines[i], "nodes=")+6:], ",")
		wn := strings.Split(wl[i][strings.Index(wl[i], "nodes=")+6:], ",")
		var moved []string
		for j := 0; j < len(gn) && j < len(wn); j++ {
			if gn[j] != wn[j] {
				moved = append(moved, strconv.Itoa(j))
			}
		}
		t.Errorf("cell %d diverged at nodes [%s]:\n got %s\nwant %s", i, strings.Join(moved, " "), lines[i], wl[i])
	}
	t.Fatal("engine transcripts are not byte-identical to the golden")
}
