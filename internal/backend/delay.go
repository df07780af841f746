package backend

import (
	"sync"
	"sync/atomic"
	"time"

	"delphi/internal/auth"
	"delphi/internal/node"
	"delphi/internal/runtime"
	"delphi/internal/sim"
	"delphi/internal/wire"
)

// traffic accumulates a cluster's outbound frame accounting across every
// node's transport. Counting happens at the wrapper, before sealing, so the
// totals are transport-independent: framed message bytes plus the MAC tag,
// mirroring the simulator's "MACs included" convention.
type traffic struct {
	bytes atomic.Int64
	msgs  atomic.Int64
}

// advTransport decorates a Transport with network-adversary delay injection
// and traffic accounting. Outbound frames are decoded (type byte + body,
// pre-seal) back into their node.Message so the same netadv presets that
// drive the simulator — pure functions of (elapsed, from, to, message,
// seed) — apply unchanged; the elapsed argument is wall-clock time since
// cluster start instead of virtual time. Delayed frames are held on a
// timer goroutine and then forwarded: the adversary may delay and reorder
// but never drops, exactly as in the simulator, except that frames still
// held when the cluster shuts down are released (their receivers are gone).
type advTransport struct {
	inner runtime.Transport
	rec   runtime.Recycler // inner's buffer pool, when it has one
	self  node.ID
	rule  sim.DelayRule // nil = clean network (accounting only)
	reg   *wire.Registry
	start time.Time
	acct  *traffic
	hist  *liveHistory // nil unless the adversary is adaptive

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
	done   chan struct{}
}

var _ runtime.Transport = (*advTransport)(nil)
var _ runtime.Recycler = (*advTransport)(nil)

// newAdvWrapper returns a TransportWrapper installing an advTransport on
// every node, all sharing one wall clock, one traffic accumulator, and —
// for adaptive adversaries — one delivered-message history (hist may be
// nil). Frames are recorded into the history when they are forwarded past
// the adversary, so the rule observes the traffic it has actually released.
func newAdvWrapper(rule sim.DelayRule, reg *wire.Registry, hist *liveHistory) (runtime.TransportWrapper, *traffic) {
	acct := &traffic{}
	start := time.Now()
	wrap := func(id node.ID, tr runtime.Transport) runtime.Transport {
		rec, _ := tr.(runtime.Recycler)
		return &advTransport{
			inner: tr,
			rec:   rec,
			self:  id,
			rule:  rule,
			reg:   reg,
			start: start,
			acct:  acct,
			hist:  hist,
			done:  make(chan struct{}),
		}
	}
	return wrap, acct
}

// Send implements runtime.Transport. Batch envelopes are unpacked before
// the adversary rule runs: delay rules are functions of individual protocol
// messages, so batching must be invisible to them — each member is
// accounted and judged on its own, and whatever is not delayed travels on
// together.
func (t *advTransport) Send(to node.ID, frame []byte) error {
	if runtime.IsBatch(frame) {
		return t.sendBatch(to, frame)
	}
	t.acct.bytes.Add(int64(len(frame) + auth.MACSize))
	t.acct.msgs.Add(1)
	if d := t.delayFor(to, frame); d > 0 {
		// Send does not retain frame past the call, so a frame leaving the
		// synchronous path must be copied.
		t.sendLater(to, append([]byte(nil), frame...), d)
		return nil
	}
	t.record()
	return t.inner.Send(to, frame)
}

// record notes one frame forwarded past the adversary in the shared
// delivered-message history.
func (t *advTransport) record() {
	if t.hist != nil {
		t.hist.record(t.self)
	}
}

// delayFor evaluates the adversary rule against one protocol frame.
func (t *advTransport) delayFor(to node.ID, frame []byte) time.Duration {
	if t.rule == nil {
		return 0
	}
	m, err := t.reg.DecodeFramed(frame)
	if err != nil {
		return 0
	}
	return t.rule(time.Since(t.start), t.self, to, m)
}

// sendBatch accounts and rules on each member of an envelope individually.
// Accounting stays per-message — framed bytes plus a MAC each, matching the
// simulator's convention — even though the batch really crosses the wire as
// one seal; the stats measure protocol traffic, not transport framing. When
// no member is delayed the original envelope is forwarded untouched (the
// common case: one write). Otherwise delayed members are copied onto their
// timers and the remainder is re-batched. The envelope is totalled locally
// and the shared counters — contended by every node of the cluster — are
// bumped once per envelope; on a clean network (no rule, no history) that
// total is all a member costs.
func (t *advTransport) sendBatch(to node.ID, frame []byte) error {
	var pass [][]byte
	var msgs, bytes int64
	delayed, clean := false, t.rule == nil && t.hist == nil
	err := runtime.UnpackBatch(frame, func(inner []byte) bool {
		msgs++
		bytes += int64(len(inner) + auth.MACSize)
		if clean {
			return true
		}
		if d := t.delayFor(to, inner); d > 0 {
			t.sendLater(to, append([]byte(nil), inner...), d)
			delayed = true
		} else {
			t.record()
			pass = append(pass, inner)
		}
		return true
	})
	t.acct.bytes.Add(bytes)
	t.acct.msgs.Add(msgs)
	if err != nil || !delayed {
		return t.inner.Send(to, frame)
	}
	switch len(pass) {
	case 0:
		return nil
	case 1:
		return t.inner.Send(to, pass[0])
	default:
		return t.inner.Send(to, runtime.AppendBatch(make([]byte, 0, len(frame)), pass))
	}
}

// sendLater holds frame (which the caller has copied for us) on a timer and
// forwards it when the timer fires, unless the wrapper detaches first.
func (t *advTransport) sendLater(to node.ID, frame []byte, d time.Duration) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.wg.Add(1)
	t.mu.Unlock()
	timer := time.NewTimer(d)
	go func() {
		defer t.wg.Done()
		defer timer.Stop()
		select {
		case <-timer.C:
			t.record()
			_ = t.inner.Send(to, frame)
		case <-t.done:
		}
	}()
}

// Recv implements runtime.Transport.
func (t *advTransport) Recv(stop <-chan struct{}) (runtime.Frame, bool) {
	return t.inner.Recv(stop)
}

// TryRecv implements runtime.Transport.
func (t *advTransport) TryRecv() (runtime.Frame, bool) { return t.inner.TryRecv() }

// Recycle implements runtime.Recycler, forwarding to the wrapped
// transport's pool when it has one.
func (t *advTransport) Recycle(buf []byte) {
	if t.rec != nil {
		t.rec.Recycle(buf)
	}
}

// detach stops the wrapper without touching the wrapped transport: no new
// delay timers start and timers still pending are released. It does not
// wait for delayed sends already past their timer — a session releases its
// per-trial wrappers this way while the inner transports live on, and
// waits for the in-flight sends only after its drainers are back (an
// in-flight send can be blocked on a peer that stopped draining; waiting
// earlier would deadlock). Safe to call more than once.
func (t *advTransport) detach() {
	t.mu.Lock()
	if !t.closed {
		t.closed = true
		close(t.done)
	}
	t.mu.Unlock()
}

// wait blocks until every in-flight delayed send has finished.
func (t *advTransport) wait() { t.wg.Wait() }

// Close implements runtime.Transport: pending delay timers are released
// and the wrapped transport is closed first, so a delayed send already
// past its timer and blocked inside the inner Send is unblocked — waiting
// for it before closing the inner transport would deadlock exactly when a
// peer has stopped draining.
func (t *advTransport) Close() error {
	t.detach()
	err := t.inner.Close()
	t.wg.Wait()
	return err
}
