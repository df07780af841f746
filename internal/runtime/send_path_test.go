package runtime_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"delphi/internal/auth"
	"delphi/internal/codec"
	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/runtime"
	"delphi/internal/wire"
)

// countedMsg is a protocol message that counts its own marshalling.
type countedMsg struct {
	body     []byte
	marshals *atomic.Int64
}

func (m countedMsg) Type() uint8   { return wire.TypeTestPing }
func (m countedMsg) WireSize() int { return len(m.body) }
func (m countedMsg) MarshalBinary() ([]byte, error) {
	m.marshals.Add(1)
	return append([]byte(nil), m.body...), nil
}

// scriptProc plays a fixed list of sends from Init and halts.
type scriptProc struct {
	script func(env node.Env)
}

func (p scriptProc) Init(env node.Env)             { p.script(env); env.Halt() }
func (p scriptProc) Deliver(node.ID, node.Message) {}

// recTransport records what the driver hands to Send: a copy of the bytes
// per destination, in order. It never delivers anything.
type recTransport struct {
	sent map[node.ID][][]byte
}

func (r *recTransport) Send(to node.ID, frame []byte) error {
	r.sent[to] = append(r.sent[to], append([]byte(nil), frame...))
	return nil
}
func (r *recTransport) Recv(stop <-chan struct{}) (runtime.Frame, bool) {
	<-stop
	return runtime.Frame{}, false
}
func (r *recTransport) TryRecv() (runtime.Frame, bool) { return runtime.Frame{}, false }
func (r *recTransport) Close() error                   { return nil }

// TestBroadcastEncodesOnce pins the driver's half of the shared-frame
// contract: one Broadcast to n nodes marshals the message once, with
// batching on and off, and what reaches the transport is byte for byte what
// encoding the message separately for every destination produced — per
// destination and in order, unicasts interleaved.
func TestBroadcastEncodesOnce(t *testing.T) {
	const n = 5
	var marshals atomic.Int64
	msg := func(s string) countedMsg { return countedMsg{body: []byte(s), marshals: &marshals} }
	a, err := auth.New(0, n, []byte("encode-once"))
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []bool{true, false} {
		t.Run(fmt.Sprintf("batch=%v", batch), func(t *testing.T) {
			// want[to] is the per-destination encoding: every (message,
			// destination) pair encoded on its own, as the driver used to.
			want := make(map[node.ID][][]byte)
			expect := func(to node.ID, m countedMsg) {
				f, err := wire.Encode(countedMsg{body: m.body, marshals: new(atomic.Int64)})
				if err != nil {
					t.Fatal(err)
				}
				want[to] = append(want[to], f)
			}
			first, second, third, uni := msg("first broadcast"), msg("second, longer broadcast body"), msg(""), msg("unicast")
			for to := node.ID(0); to < n; to++ {
				expect(to, first)
				if to == 3 {
					expect(to, uni)
				}
				expect(to, second)
				expect(to, third)
			}
			marshals.Store(0)
			tr := &recTransport{sent: make(map[node.ID][][]byte)}
			proc := scriptProc{script: func(env node.Env) {
				env.Broadcast(first)
				if got := marshals.Load(); got != 1 {
					t.Errorf("one Broadcast to %d nodes marshalled %d times, want 1", n, got)
				}
				env.Send(3, uni)
				env.Broadcast(second)
				env.Broadcast(third)
			}}
			d := runtime.NewDriver(node.Config{N: n, F: 1}, 0, proc, tr, a, codec.MustRegistry(), runtime.WithDriverBatching(batch))
			if err := d.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got := marshals.Load(); got != 4 {
				t.Errorf("three broadcasts and a unicast marshalled %d times, want 4", got)
			}
			for to := node.ID(0); to < n; to++ {
				exp := want[to]
				if batch {
					exp = [][]byte{runtime.AppendBatch(nil, want[to])}
				}
				if len(tr.sent[to]) != len(exp) {
					t.Fatalf("node %d got %d sends, want %d", to, len(tr.sent[to]), len(exp))
				}
				for i := range exp {
					if !bytes.Equal(tr.sent[to][i], exp[i]) {
						t.Errorf("node %d send %d = %x, want %x", to, i, tr.sent[to][i], exp[i])
					}
				}
			}
			if f := d.Faults(); f != (runtime.Faults{}) {
				t.Errorf("clean run counted faults %v", f)
			}
		})
	}
}

// noDial fails the test if the transport ever dials.
func noDial(t *testing.T) runtime.DialFunc {
	return func(addr string) (net.Conn, error) {
		t.Errorf("dialed %s for a self-addressed frame", addr)
		return nil, fmt.Errorf("no dialing in this test")
	}
}

// TestTCPSelfFramesSkipSocket pins the loop-back path on all three tcp send
// surfaces: a burst a node addresses to itself arrives authenticated and in
// send order without a single dial, and once the transport is closed such a
// frame is counted in Drops rather than lost silently.
func TestTCPSelfFramesSkipSocket(t *testing.T) {
	const burst = 1000
	master := []byte("self-frames")
	a, err := auth.New(0, 2, master)
	if err != nil {
		t.Fatal(err)
	}
	sendBurst := func(t *testing.T, tr runtime.Transport) {
		t.Helper()
		for seq := 0; seq < burst; seq++ {
			if err := tr.Send(0, seqFrame(0, seq)); err != nil {
				t.Fatalf("self-send %d: %v", seq, err)
			}
		}
	}

	t.Run("NewTCP", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tr := runtime.NewTCPDial(0, []string{ln.Addr().String(), "peer.invalid:1"}, ln, a, noDial(t))
		defer tr.Close()
		sendBurst(t, tr)
		chk := &seqChecker{next: map[int]int{}}
		for i := 0; i < burst; i++ {
			f, ok := tr.TryRecv() // a self-send is in the inbox when Send returns
			if !ok {
				t.Fatalf("inbox dry after %d of %d self-frames", i, burst)
			}
			chk.observe(t, a, f)
		}
		tr.Close()
		if err := tr.Send(0, seqFrame(0, 0)); err != nil {
			t.Fatalf("post-close self-send errored instead of drop-counting: %v", err)
		}
		if got := tr.(interface{ Drops() uint64 }).Drops(); got != 1 {
			t.Errorf("Drops() = %d after one post-close self-send, want 1", got)
		}
	})

	for _, tagged := range []bool{false, true} {
		t.Run(fmt.Sprintf("TCPNet/tagged=%v", tagged), func(t *testing.T) {
			fab, err := runtime.NewTCPNet(2)
			if err != nil {
				t.Fatal(err)
			}
			defer fab.Close()
			rec := obs.New()
			fab.Observe(rec)
			const tag = 0xfeedface
			ep := fab.Endpoint(0, a)
			if tagged {
				ep = fab.TaggedEndpoint(0, a, tag)
			}
			sendBurst(t, ep)
			chk := &seqChecker{next: map[int]int{}}
			for i := 0; i < burst; i++ {
				f, ok := ep.TryRecv()
				if !ok {
					t.Fatalf("inbox dry after %d of %d self-frames", i, burst)
				}
				if tagged {
					// A tagged view leaves the tag on for the InstanceMux.
					n := len(f.Data) - runtime.TagSize
					if got := binary.LittleEndian.Uint64(f.Data[n:]); got != tag {
						t.Fatalf("frame %d carries tag %#x, want %#x", i, got, tag)
					}
					f.Data = f.Data[:n]
				}
				chk.observe(t, a, f)
			}
			if got := countDials(rec); len(got) != 0 {
				t.Errorf("self-frames dialed: %v", got)
			}
			fab.Close()
			if err := ep.Send(0, seqFrame(0, 0)); err != nil {
				t.Fatalf("post-close self-send errored instead of drop-counting: %v", err)
			}
			if got := fab.Drops(); got != 1 {
				t.Errorf("Drops() = %d after one post-close self-send, want 1", got)
			}
		})
	}
}

// countDials returns the (from, to) pair of every tcp.dial event recorded.
func countDials(rec *obs.Recorder) [][2]int64 {
	var dials [][2]int64
	for _, tr := range rec.Tracks() {
		for _, e := range tr.Events() {
			if e.Name == "tcp.dial" {
				dials = append(dials, [2]int64{e.A, e.B})
			}
		}
	}
	return dials
}

// TestTCPNetFullMeshDials pins what a fabric reports about its connections:
// transport.links reads n(n−1)/2 as soon as a recorder is attached, and after
// every node has sent to every node, itself included, not one tcp.dial has
// been recorded — the wired links carried it all, self-frames off the socket
// — and the cores hold exactly those links, two ends each.
func TestTCPNetFullMeshDials(t *testing.T) {
	const n = 5
	fab, err := runtime.NewTCPNet(n)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	rec := obs.New()
	fab.Observe(rec)
	if got := rec.Snapshot().Value("transport.links"); got != n*(n-1)/2 {
		t.Errorf("transport.links = %d, want %d", got, n*(n-1)/2)
	}
	allToAll(t, fab, fabricAuths(t, n, "full-mesh"))
	if dials := countDials(rec); len(dials) != 0 {
		t.Errorf("all-to-all traffic on a wired fabric dialed: %v", dials)
	}
	if got := fab.ConnEnds(); got != n*(n-1) {
		t.Errorf("fabric holds %d connection ends, want %d (two per link)", got, n*(n-1))
	}
}

// TestStaleEpochFramesAreFiltered pins the epoch suffix on both persistent
// fabrics: a frame still crossing the fabric from an earlier epoch (another
// master key) is recycled and counted in transport.stale_epoch by the new
// epoch's endpoint and never handed to its reader, while the new epoch's
// own frames — queued behind it — arrive stripped and authentic.
func TestStaleEpochFramesAreFiltered(t *testing.T) {
	keys := func(master string) [2]*auth.Auth {
		var out [2]*auth.Auth
		for i := range out {
			a, err := auth.New(node.ID(i), 2, []byte(master))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = a
		}
		return out
	}
	old, cur := keys("epoch-1"), keys("epoch-2")
	if old[0].Epoch() != old[1].Epoch() || old[0].Epoch() == cur[0].Epoch() {
		t.Fatalf("epoch ids: same master %#x/%#x, other master %#x", old[0].Epoch(), old[1].Epoch(), cur[0].Epoch())
	}
	hub := runtime.NewHub(2)
	defer hub.Close()
	fab, err := runtime.NewTCPNet(2)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	fabrics := map[string]struct {
		observe  func(*obs.Recorder)
		endpoint func(node.ID, *auth.Auth) runtime.Transport
	}{
		"hub": {hub.Observe, hub.Endpoint},
		"tcp": {fab.Observe, fab.Endpoint},
	}
	for name, f := range fabrics {
		t.Run(name, func(t *testing.T) {
			rec := obs.New()
			f.observe(rec)
			for seq := 0; seq < 3; seq++ {
				if err := f.endpoint(0, old[0]).Send(1, seqFrame(0, seq)); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.endpoint(0, cur[0]).Send(1, seqFrame(0, 0)); err != nil {
				t.Fatal(err)
			}
			rx := f.endpoint(1, cur[1])
			got, ok := recvFrame(t, rx, 5*time.Second)
			if !ok {
				t.Fatal("the current epoch's frame never arrived")
			}
			(&seqChecker{next: map[int]int{}}).observe(t, cur[1], got)
			if _, ok := rx.TryRecv(); ok {
				t.Error("a second frame came through: a stale one was not filtered")
			}
			if stale := rec.Snapshot().Value("transport.stale_epoch"); stale != 3 {
				t.Errorf("transport.stale_epoch = %d, want 3", stale)
			}
		})
	}
}

// forgingTransport flips a payload bit of the first frame its node
// receives, below the driver and above the endpoint: the frame has passed
// the epoch check and now fails its MAC.
type forgingTransport struct {
	runtime.Transport
	forged *atomic.Bool
}

func (f forgingTransport) TryRecv() (runtime.Frame, bool) { return f.corrupt(f.Transport.TryRecv()) }
func (f forgingTransport) Recv(stop <-chan struct{}) (runtime.Frame, bool) {
	return f.corrupt(f.Transport.Recv(stop))
}
func (f forgingTransport) corrupt(fr runtime.Frame, ok bool) (runtime.Frame, bool) {
	if ok && f.forged.CompareAndSwap(false, true) {
		fr.Data[0] ^= 0x40
	}
	return fr, ok
}

// TestBadMACIsCounted pins what happens to a frame that passes the epoch
// check and then fails authentication: it is dropped, counted in
// driver.bad_mac, and summed into the cluster result — without a log line,
// and without stopping a cluster that tolerates the loss.
func TestBadMACIsCounted(t *testing.T) {
	const n = 4
	var marshals atomic.Int64
	procs := make([]node.Process, n)
	for i := range procs {
		procs[i] = &pingProc{n: n, marshals: &marshals}
	}
	var forged atomic.Bool
	rec := obs.New()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := runtime.RunCluster(ctx, node.Config{N: n, F: 1}, procs, []byte("bad-mac"), pingRegistry(t, &marshals),
		runtime.WithObsTracks(rec, nil),
		runtime.WithTransportWrap(func(id node.ID, tr runtime.Transport) runtime.Transport {
			if id != 1 {
				return tr
			}
			return forgingTransport{Transport: tr, forged: &forged}
		}))
	if err != nil {
		t.Fatal(err)
	}
	want := runtime.Faults{}
	want[runtime.FaultBadMAC] = 1
	if res.Faults != want {
		t.Errorf("cluster faults = %v, want %v", res.Faults, want)
	}
	if got := rec.Snapshot().Value("driver.bad_mac"); got != 1 {
		t.Errorf("driver.bad_mac = %d, want 1", got)
	}
	for i := 0; i < n; i++ {
		if res.Final(i) == nil {
			t.Errorf("node %d never decided (err %v)", i, res.Errs[i])
		}
	}
}

// pingProc broadcasts one ping and halts once it has heard n−1 of them, so
// it survives losing one.
type pingProc struct {
	n, heard int
	env      node.Env
	marshals *atomic.Int64
}

func (p *pingProc) Init(env node.Env) {
	p.env = env
	env.Broadcast(countedMsg{body: []byte{byte(env.Self())}, marshals: p.marshals})
}

func (p *pingProc) Deliver(node.ID, node.Message) {
	if p.heard++; p.heard == p.n-1 {
		p.env.Output(p.heard)
		p.env.Halt()
	}
}

// chainProc broadcasts "a" from Init, answers its own "a" with a broadcast
// of "b", and halts on its own "b".
type chainProc struct {
	env      node.Env
	marshals *atomic.Int64
}

func (p *chainProc) Init(env node.Env) {
	p.env = env
	env.Broadcast(countedMsg{body: []byte("a"), marshals: p.marshals})
}

func (p *chainProc) Deliver(from node.ID, m node.Message) {
	switch body := m.(countedMsg).body; {
	case from != p.env.Self():
	case string(body) == "a":
		p.env.Broadcast(countedMsg{body: []byte("b"), marshals: p.marshals})
	default:
		p.env.Halt()
	}
}

// pingRegistry decodes TypeTestPing frames back into countedMsg.
func pingRegistry(t *testing.T, marshals *atomic.Int64) *wire.Registry {
	t.Helper()
	reg := wire.NewRegistry()
	if err := reg.Register(wire.TypeTestPing, func(body []byte) (node.Message, error) {
		return countedMsg{body: append([]byte(nil), body...), marshals: marshals}, nil
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestOwnFramesGoFirst pins the driver's idle rule: with the inbox dry, the
// batch a node holds for itself is delivered before the peers' batches are
// sealed, so what its own message triggers reaches each peer in the same
// envelope as the message — one write per peer for the chain a → b, not two.
func TestOwnFramesGoFirst(t *testing.T) {
	const n = 3
	var marshals atomic.Int64
	hub := runtime.NewHub(n)
	defer hub.Close()
	auths := make([]*auth.Auth, n)
	for i := range auths {
		var err error
		if auths[i], err = auth.New(node.ID(i), n, []byte("own-first")); err != nil {
			t.Fatal(err)
		}
	}
	d := runtime.NewDriver(node.Config{N: n, F: 0}, 0, &chainProc{marshals: &marshals},
		hub.Endpoint(0, auths[0]), auths[0], pingRegistry(t, &marshals))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Run(ctx); err != nil {
		t.Fatal(err)
	}
	a, _ := wire.Encode(countedMsg{body: []byte("a"), marshals: &marshals})
	b, _ := wire.Encode(countedMsg{body: []byte("b"), marshals: &marshals})
	want := runtime.AppendBatch(nil, [][]byte{a, b})
	for peer := node.ID(1); peer < n; peer++ {
		rx := hub.Endpoint(peer, auths[peer])
		f, ok := rx.TryRecv()
		if !ok {
			t.Fatalf("node %d received nothing", peer)
		}
		got, err := auths[peer].Open(0, f.Data)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("node %d first frame = %x (err %v), want the envelope [a b] %x", peer, got, err, want)
		}
		if _, ok := rx.TryRecv(); ok {
			t.Errorf("node %d received a second write for one chain", peer)
		}
	}
}

// selfTalker sends itself a message for every message it gets from itself,
// for ever, and one to node 1 alongside.
type selfTalker struct {
	env      node.Env
	marshals *atomic.Int64
}

func (p *selfTalker) Init(env node.Env) { p.env = env; p.Deliver(env.Self(), nil) }
func (p *selfTalker) Deliver(node.ID, node.Message) {
	p.env.Send(p.env.Self(), countedMsg{body: []byte("again"), marshals: p.marshals})
	p.env.Send(1, countedMsg{body: []byte("for you"), marshals: p.marshals})
}

// TestSelfTalkerStillFlushes pins the bound on that rule: a process that
// keeps its own inbox busy cannot withhold its peers' traffic for more than
// flushEvery (64) of its own frames.
func TestSelfTalkerStillFlushes(t *testing.T) {
	var marshals atomic.Int64
	hub := runtime.NewHub(2)
	defer hub.Close()
	a0, _ := auth.New(0, 2, []byte("self-talker"))
	a1, _ := auth.New(1, 2, []byte("self-talker"))
	d := runtime.NewDriver(node.Config{N: 2, F: 0}, 0, &selfTalker{marshals: &marshals},
		hub.Endpoint(0, a0), a0, pingRegistry(t, &marshals))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()
	f, ok := recvFrame(t, hub.Endpoint(1, a1), 10*time.Second)
	cancel()
	<-done
	if !ok {
		t.Fatal("node 1 never heard from a node busy talking to itself")
	}
	opened, err := a1.Open(0, f.Data)
	if err != nil {
		t.Fatal(err)
	}
	members := 1
	if runtime.IsBatch(opened) {
		members = 0
		if err := runtime.UnpackBatch(opened, func([]byte) bool { members++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	if members > 65 {
		t.Errorf("first write to node 1 holds %d messages, want at most 65 (Init's plus flushEvery)", members)
	}
}

// outputter outputs 0, 1, … from Init, count of them, and halts.
type outputter int

func (o outputter) Init(env node.Env) {
	for i := range int(o) {
		env.Output(i)
	}
	env.Halt()
}
func (outputter) Deliver(node.ID, node.Message) {}

// TestOutputsKeptInOrder: a burst of outputs from one step is kept whole
// and in order on every node, run after run, and Final is the last of them.
func TestOutputsKeptInOrder(t *testing.T) {
	const n, outs = 4, 500
	procs := make([]node.Process, n)
	for i := range procs {
		procs[i] = outputter(outs)
	}
	for rep := range 5 {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		res, err := runtime.RunCluster(ctx, node.Config{N: n, F: 1}, procs, []byte("outputs"), wire.NewRegistry())
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		for i := range n {
			if len(res.Outputs[i]) != outs || len(res.Times[i]) != outs {
				t.Fatalf("run %d node %d: %d outputs, %d stamps, want %d", rep, i, len(res.Outputs[i]), len(res.Times[i]), outs)
			}
			for j, v := range res.Outputs[i] {
				if v != j || j > 0 && res.Times[i][j] < res.Times[i][j-1] {
					t.Fatalf("run %d node %d: output %d is %v at %v, want %d in time order", rep, i, j, v, res.Times[i][j], j)
				}
			}
			if res.Final(i) != outs-1 {
				t.Fatalf("run %d node %d: Final %v, want %d", rep, i, res.Final(i), outs-1)
			}
		}
	}
}

// badMsg fails to marshal.
type badMsg struct{}

func (badMsg) Type() uint8                    { return wire.TypeTestPing }
func (badMsg) WireSize() int                  { return 0 }
func (badMsg) MarshalBinary() ([]byte, error) { return nil, errors.New("cannot marshal") }

// TestEncodeFailureIsRunError: a message that fails to marshal is not
// dropped silently: Run returns the error, and the cluster result carries it
// for that node alone.
func TestEncodeFailureIsRunError(t *testing.T) {
	const n = 4
	procs := make([]node.Process, n)
	for i := range procs {
		procs[i] = scriptProc{func(env node.Env) {
			if env.Self() == 0 {
				env.Broadcast(badMsg{})
			}
			env.Output(true)
		}}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := runtime.RunCluster(ctx, node.Config{N: n, F: 1}, procs, []byte("bad-msg"), wire.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Errs[0]; err == nil || !strings.Contains(err.Error(), "cannot marshal") {
		t.Errorf("node 0 error %v, want the marshal failure", err)
	}
	for i := 1; i < n; i++ {
		if res.Errs[i] != nil {
			t.Errorf("node %d error %v, want none", i, res.Errs[i])
		}
	}
}
