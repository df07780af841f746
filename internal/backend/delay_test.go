package backend

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"delphi/internal/auth"
	"delphi/internal/node"
	"delphi/internal/run"
	"delphi/internal/runtime"
	"delphi/internal/sim"
	"delphi/internal/wire"
)

// pingMsg is a test protocol message; its first body byte is what the test
// delay rules key on.
type pingMsg struct{ body []byte }

func (m pingMsg) Type() uint8                           { return wire.TypeTestPing }
func (m pingMsg) WireSize() int                         { return len(m.body) }
func (m pingMsg) AppendBinary(b []byte) ([]byte, error) { return append(b, m.body...), nil }

func pingRegistry(t *testing.T) *wire.Registry {
	t.Helper()
	reg := wire.NewRegistry()
	if err := reg.Register(wire.TypeTestPing, func(body []byte, _ *wire.Arena) (node.Message, error) {
		return pingMsg{body: body}, nil
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// sinkTransport is the transport under the wrapper in these tests: it
// copies every frame it is sent, per destination, in arrival order.
type sinkTransport struct {
	mu   sync.Mutex
	sent map[node.ID][][]byte
}

func newSink() *sinkTransport { return &sinkTransport{sent: make(map[node.ID][][]byte)} }

func (s *sinkTransport) Send(to node.ID, frame []byte) error {
	s.mu.Lock()
	s.sent[to] = append(s.sent[to], append([]byte(nil), frame...))
	s.mu.Unlock()
	return nil
}
func (s *sinkTransport) Recv(<-chan struct{}) (runtime.Frame, bool) { return runtime.Frame{}, false }
func (s *sinkTransport) TryRecv() (runtime.Frame, bool)             { return runtime.Frame{}, false }
func (s *sinkTransport) Close() error                               { return nil }

func (s *sinkTransport) got(to node.ID) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]byte(nil), s.sent[to]...)
}

// TestDelayWrapperLeavesSharedFramesIntact is the wrapper's half of the
// shared-frame contract. The driver hands one encoded broadcast to every
// destination, so a wrapper that delays it for some peers must not disturb
// what the others receive: the frame goes through the delay wrapper under a
// rule that holds it back for odd destinations (bare frame) and one that
// holds back one member of an envelope (re-batch), and the undelayed peers'
// bytes, the late peers' bytes and the shared frames themselves are checked.
func TestDelayWrapperLeavesSharedFramesIntact(t *testing.T) {
	const n = 6
	const hold = 5 * time.Millisecond
	enc := func(body string) []byte {
		f, err := wire.Encode(pingMsg{body: []byte(body)})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	keep1, slow, keep2 := enc("k-first"), enc("s-held back"), enc("k-last")
	pristine := [][]byte{bytes.Clone(keep1), bytes.Clone(slow), bytes.Clone(keep2)}
	rule := func(_ time.Duration, _, to node.ID, m node.Message) time.Duration {
		if body := m.(pingMsg).body; body[0] == 's' && to%2 == 1 {
			return hold
		}
		return 0
	}
	wrap, acct := newAdvWrapper(rule, pingRegistry(t), nil)
	sink := newSink()
	adv := wrap(0, sink).(*advTransport)

	// One shared bare frame to everyone, then one envelope of three shared
	// members to everyone, as a driver's flush would send them.
	for to := node.ID(0); to < n; to++ {
		if err := adv.Send(to, slow); err != nil {
			t.Fatal(err)
		}
	}
	scratch := make([]byte, 0, 256)
	for to := node.ID(0); to < n; to++ {
		scratch = runtime.AppendBatch(scratch[:0], [][]byte{keep1, slow, keep2})
		if err := adv.Send(to, scratch); err != nil {
			t.Fatal(err)
		}
	}
	whole := runtime.AppendBatch(nil, pristine)
	rest := runtime.AppendBatch(nil, [][]byte{pristine[0], pristine[2]})
	for to := node.ID(0); to < n; to += 2 {
		if got := sink.got(to); len(got) != 2 || !bytes.Equal(got[0], pristine[1]) || !bytes.Equal(got[1], whole) {
			t.Errorf("undelayed node %d received %x", to, got)
		}
	}
	adv.wait() // every held copy has been forwarded
	for to := node.ID(1); to < n; to += 2 {
		// The two undelayed members travel on together; the held frame
		// arrives twice, whenever its timers fire.
		var together, held int
		for _, f := range sink.got(to) {
			switch {
			case bytes.Equal(f, rest):
				together++
			case bytes.Equal(f, pristine[1]):
				held++
			default:
				t.Errorf("delayed node %d received %x", to, f)
			}
		}
		if together != 1 || held != 2 {
			t.Errorf("delayed node %d: %d re-batched envelopes and %d held frames, want 1 and 2", to, together, held)
		}
	}
	for i, f := range [][]byte{keep1, slow, keep2} {
		if !bytes.Equal(f, pristine[i]) {
			t.Errorf("shared frame %d was written to: %x, want %x", i, f, pristine[i])
		}
	}
	wantMsgs := int64(n + 3*n)
	wantBytes := int64(n*(len(slow)+auth.MACSize) + n*(len(keep1)+len(slow)+len(keep2)+3*auth.MACSize))
	if acct.msgs.Load() != wantMsgs || acct.bytes.Load() != wantBytes {
		t.Errorf("accounted %d msgs / %d bytes, want %d / %d", acct.msgs.Load(), acct.bytes.Load(), wantMsgs, wantBytes)
	}
	adv.Close()
}

// TestCleanAndRulePathsAccountAlike pins the clean-network fast path against
// the per-member path it bypasses: the same traffic — bare frames, envelopes,
// an empty envelope, a malformed one — through a wrapper with no rule and
// through one whose rule never delays must report identical totals and
// forward identical bytes.
func TestCleanAndRulePathsAccountAlike(t *testing.T) {
	reg := pingRegistry(t)
	var frames [][]byte
	for i := 0; i < 40; i++ {
		f, err := wire.Encode(pingMsg{body: bytes.Repeat([]byte{byte(i)}, i*7%90)})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	sends := [][]byte{
		frames[0],
		runtime.AppendBatch(nil, frames),
		runtime.AppendBatch(nil, frames[3:5]),
		runtime.AppendBatch(nil, nil),
		frames[39],
		append(runtime.AppendBatch(nil, frames[:3]), 0x7f), // last member's length overruns
	}
	relay := func(rule sim.DelayRule) (*traffic, [][]byte) {
		wrap, acct := newAdvWrapper(rule, reg, nil)
		sink := newSink()
		adv := wrap(2, sink)
		for _, f := range sends {
			if err := adv.Send(1, f); err != nil {
				t.Fatal(err)
			}
		}
		adv.Close()
		return acct, sink.got(1)
	}
	clean, cleanSent := relay(nil)
	ruled, ruledSent := relay(func(time.Duration, node.ID, node.ID, node.Message) time.Duration { return 0 })
	if clean.msgs.Load() != ruled.msgs.Load() || clean.bytes.Load() != ruled.bytes.Load() {
		t.Errorf("clean path accounted %d msgs / %d bytes, rule path %d / %d",
			clean.msgs.Load(), clean.bytes.Load(), ruled.msgs.Load(), ruled.bytes.Load())
	}
	if want := int64(1 + 40 + 2 + 0 + 1 + 3); clean.msgs.Load() != want {
		t.Errorf("accounted %d messages, want %d", clean.msgs.Load(), want)
	}
	if len(cleanSent) != len(sends) || len(ruledSent) != len(sends) {
		t.Fatalf("forwarded %d / %d frames, want %d each", len(cleanSent), len(ruledSent), len(sends))
	}
	for i := range sends {
		if !bytes.Equal(cleanSent[i], sends[i]) || !bytes.Equal(ruledSent[i], sends[i]) {
			t.Errorf("frame %d forwarded as %x (clean) / %x (rule), want %x", i, cleanSent[i], ruledSent[i], sends[i])
		}
	}
}

// TestBadMACFailsTheTrial pins the gate in clusterStats: a cluster result
// that counted an authentication failure yields no stats, whatever its
// outputs say.
func TestBadMACFailsTheTrial(t *testing.T) {
	spec := run.RunSpec{Protocol: run.ProtoDelphi, N: 8, F: 2}
	res := &runtime.ClusterResult{
		Outputs: make([][]any, spec.N),
		Times:   make([][]time.Duration, spec.N),
		Errs:    make([]error, spec.N),
	}
	res.Faults[runtime.FaultBadMAC] = 2
	_, err := clusterStats(spec, run.BackendTCP, res, &traffic{}, context.Background(), time.Second)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("2 frames failed authentication")) {
		t.Errorf("err = %v, want the authentication failure", err)
	}
}

// TestDriverErrorFailsTheTrial: a driver error in the cluster result (a
// message that failed to encode went unsent) fails the trial, whatever its
// outputs say.
func TestDriverErrorFailsTheTrial(t *testing.T) {
	spec := run.RunSpec{Protocol: run.ProtoDelphi, N: 8, F: 2}
	res := &runtime.ClusterResult{
		Outputs: make([][]any, spec.N),
		Times:   make([][]time.Duration, spec.N),
		Errs:    make([]error, spec.N),
	}
	res.Errs[3] = errors.New("encode: cannot marshal")
	_, err := clusterStats(spec, run.BackendTCP, res, &traffic{}, context.Background(), time.Second)
	if err == nil || !errors.Is(err, res.Errs[3]) {
		t.Errorf("err = %v, want node 3's driver error", err)
	}
}
