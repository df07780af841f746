package aba

import (
	"runtime"
	"testing"

	"delphi/internal/coin"
	"delphi/internal/node"
)

// capEnv is a node.Env that keeps what a process broadcasts.
type capEnv struct {
	self node.ID
	n, f int
	msgs []node.Message
}

func (e *capEnv) Self() node.ID                  { return e.self }
func (e *capEnv) N() int                         { return e.n }
func (e *capEnv) F() int                         { return e.f }
func (e *capEnv) Send(_ node.ID, m node.Message) { e.msgs = append(e.msgs, m) }
func (e *capEnv) Broadcast(m node.Message)       { e.msgs = append(e.msgs, m) }
func (e *capEnv) Output(any)                     {}
func (e *capEnv) Halt()                          {}
func (e *capEnv) ChargeCompute(node.ComputeCost) {}

// TestEngineSizedByRounds: an engine allocates for the rounds it runs, not
// for MaxRounds of them. At n=16 NewEngine allocates under 1 KiB (the table of
// MaxRounds+1 rows it replaced was 3.1 KiB), and an engine whose instances all
// decide in round 1 holds the rows of round 1 and of the zombie round 2 in
// the Engine itself: its row table allocated nothing.
func TestEngineSizedByRounds(t *testing.T) {
	const n, f, runs = 16, 5, 100
	cfg := node.Config{N: n, F: f}
	engs, env := make([]*Engine, runs), &capEnv{n: n, f: f}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range engs {
		engs[i] = NewEngine(cfg, env, nil, nil)
	}
	runtime.ReadMemStats(&after)
	b := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("NewEngine at n=%d: %.0f bytes", n, b)
	if b >= 1024 {
		t.Errorf("NewEngine at n=%d allocates %.0f bytes, want under 1 KiB", n, b)
	}

	var e *Engine
	coins := coin.NewSource(cfg, &capEnv{n: n, f: f}, 7, CoinID(1), MaxRounds, func(id, v uint64) { e.OnCoin(id, v) })
	decided := 0
	e = NewEngine(cfg, &capEnv{n: n, f: f}, coins, func(uint32, bool) { decided++ })
	// Unanimous inputs on round 1's coin decide in round 1.
	v := coins.Value(CoinID(1))&1 == 1
	for i := range uint32(n) {
		e.Input(i, v)
	}
	for from := range node.ID(n - f) {
		for i := range uint32(n) {
			e.Handle(from, &BVal{Inst: i, Round: 1, V: v})
			e.Handle(from, &Aux{Inst: i, Round: 1, V: v})
		}
	}
	for from := range node.ID(f + 1) {
		env := &capEnv{self: from, n: n, f: f}
		coin.NewSource(cfg, env, 7, CoinID(1), MaxRounds, nil).Request(CoinID(1))
		coins.Handle(from, env.msgs[0])
	}
	if decided != n {
		t.Fatalf("%d of %d instances decided", decided, n)
	}
	if len(e.rows) != 2 || e.rows[0].round != 1 || e.rows[1].round != 2 {
		t.Errorf("rows for rounds %v, want [1 2]", []int{e.rows[0].round, e.rows[len(e.rows)-1].round})
	}
	if &e.rows[0] != &e.inline[0] {
		t.Error("the row table left the Engine")
	}
}
