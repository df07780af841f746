package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"delphi/internal/auth"
	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/runtime"
	"delphi/internal/wire"
)

// The traced pass measures the layers from outside: perf owns two
// decorators — a node.Process wrapper around every protocol instance and a
// runtime.Transport wrapper around every endpoint — and builds the same
// runs the untraced pass asks bench for out of the layers' public entry
// points, with the decorators interposed. Nothing under internal/ knows it
// is being timed.

// span is one timed interval. Spans of one op share Op; Parent is the ID of
// the span that caused this one (-1 for an op's root). A span with Calls > 0
// is an aggregate: the protocol step runs millions of times per op, so its
// intervals are summed per op and wire type instead of stored one by one;
// such a span starts at its parent's start and lasts the summed duration.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
}

// typeSlots bounds the per-wire-type tables; every protocol type byte is
// below it (internal/wire allocates from 1 upward) and anything else shares
// the last slot.
const typeSlots = 32

func typeSlot(t uint8) int {
	if int(t) < typeSlots-1 {
		return int(t)
	}
	return typeSlots - 1
}

// layerOf maps a wire type to the module whose handler the step enters.
func layerOf(t int) string {
	switch uint8(t) {
	case wire.TypeEcho1, wire.TypeEcho1C:
		return "binaa.echo1"
	case wire.TypeEcho2, wire.TypeEcho2C:
		return "binaa.echo2"
	case wire.TypeRBCInit, wire.TypeRBCEcho, wire.TypeRBCReady:
		return "rbc"
	case wire.TypeCoinShare:
		return "coin"
	case wire.TypeABABVal, wire.TypeABAAux:
		return "aba"
	case wire.TypeACSPayload:
		return "acs"
	case wire.TypeAAAValue, wire.TypeAAAReport, wire.TypeAAAMulticast:
		return "aaa"
	}
	return "other"
}

// stepAcc accumulates one wire type's protocol steps.
type stepAcc struct {
	calls, busy int64
	// sized/sizedBytes sample every 64th message's WireSize.
	sized, sizedBytes int64
}

func (a *stepAcc) add(o *stepAcc) {
	a.calls += o.calls
	a.busy += o.busy
	a.sized += o.sized
	a.sizedBytes += o.sizedBytes
}

// nodeAcc is one node's share of one op. The simulator's parallel executor
// steps different nodes on different goroutines but never one node on two,
// and a live driver is one goroutine, so a nodeAcc needs no lock.
type nodeAcc struct {
	step [typeSlots]stepAcc
	hist durHist
	init int64
}

// tracedProc times a protocol instance's Init and Deliver calls.
type tracedProc struct {
	inner node.Process
	acc   *nodeAcc
}

func (p *tracedProc) Init(env node.Env) {
	t := time.Now()
	p.inner.Init(env)
	p.acc.init += int64(time.Since(t))
}

func (p *tracedProc) Deliver(from node.ID, m node.Message) {
	t := time.Now()
	p.inner.Deliver(from, m)
	d := int64(time.Since(t))
	a := &p.acc.step[typeSlot(m.Type())]
	a.calls++
	a.busy += d
	if a.calls&63 == 0 {
		a.sized++
		a.sizedBytes += int64(m.WireSize())
	}
	p.acc.hist.add(d)
}

// linkAcc is what one endpoint's wrapper saw during one op.
type linkAcc struct {
	sendCalls, sendBusy, sendBytes int64
	msgs, msgBytes                 int64
	recvCalls, recvWait            int64
	sendHist                       durHist
	frames                         [][]byte
}

func (a *linkAcc) add(o *linkAcc) {
	a.sendCalls += o.sendCalls
	a.sendBusy += o.sendBusy
	a.sendBytes += o.sendBytes
	a.msgs += o.msgs
	a.msgBytes += o.msgBytes
	a.recvCalls += o.recvCalls
	a.recvWait += o.recvWait
	a.sendHist.merge(&o.sendHist)
	a.frames = append(a.frames, o.frames...)
}

// sampleEvery is the stride at which an endpoint copies an outbound frame
// for the offline codec/auth replay.
const sampleEvery = 64

// tracedTransport times Send, the time a driver spends blocked in Recv, and
// counts frames, messages and bytes. Like the backend's own accounting
// wrapper it sees frames before they are sealed, so a message costs its
// framed bytes plus one MAC, the simulator's convention.
type tracedTransport struct {
	inner runtime.Transport
	pool  runtime.Recycler
	acc   *linkAcc
}

var (
	_ runtime.Transport = (*tracedTransport)(nil)
	_ runtime.Recycler  = (*tracedTransport)(nil)
)

func (t *tracedTransport) Send(to node.ID, frame []byte) error {
	a := t.acc
	if runtime.IsBatch(frame) {
		// A malformed envelope cannot come out of the driver's AppendBatch.
		_ = runtime.UnpackBatch(frame, func(inner []byte) bool {
			a.msgs++
			a.msgBytes += int64(len(inner) + auth.MACSize)
			return true
		})
	} else {
		a.msgs++
		a.msgBytes += int64(len(frame) + auth.MACSize)
	}
	if a.sendCalls%sampleEvery == 0 {
		a.frames = append(a.frames, append([]byte(nil), frame...))
	}
	start := time.Now()
	err := t.inner.Send(to, frame)
	d := int64(time.Since(start))
	a.sendCalls++
	a.sendBusy += d
	a.sendBytes += int64(len(frame) + auth.MACSize)
	a.sendHist.add(d)
	return err
}

func (t *tracedTransport) Recv(stop <-chan struct{}) (runtime.Frame, bool) {
	start := time.Now()
	f, ok := t.inner.Recv(stop)
	t.acc.recvWait += int64(time.Since(start))
	if ok {
		t.acc.recvCalls++
	}
	return f, ok
}

func (t *tracedTransport) TryRecv() (runtime.Frame, bool) {
	f, ok := t.inner.TryRecv()
	if ok {
		t.acc.recvCalls++
	}
	return f, ok
}

func (t *tracedTransport) Recycle(buf []byte) {
	if t.pool != nil {
		t.pool.Recycle(buf)
	}
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

// maxFrames caps the frames kept for replay across the whole traced pass.
const maxFrames = 4096

// tracer is one traced pass's in-memory record: the span list and the
// per-layer totals the ledger is computed from. Ops finish concurrently on
// the service workload, so everything behind mu is merged per op.
type tracer struct {
	epoch time.Time
	// rec is attached through the layers' existing public Obs hooks to read
	// the counters the program already exports (driver flushes, inbox high
	// water, dials, stale mux frames).
	rec *obs.Recorder

	mu     sync.Mutex
	spans  []span
	ops    int
	honest int // honest nodes per op
	step   [typeSlots]stepAcc
	hist   durHist
	init   int64
	newNS  int64   // building the protocol instances (core.New, acs.New, ...)
	link   linkAcc // its frames are the replay sample, capped at maxFrames

	// simulator-only totals
	newRunner, simRun, simRunCPU int64
	events, simMallocs           int64
	windows, binaaRounds         int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), rec: obs.New()}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// opTrace is one op's private scratch; finish merges it into the tracer.
type opTrace struct {
	tr    *tracer
	start int64
	spans []span // IDs are local until finish renumbers them; [0] is the root
	nodes []nodeAcc
	links []linkAcc
	newNS int64
}

func (tr *tracer) beginOp(n int) *opTrace {
	ot := &opTrace{tr: tr, start: tr.now(), nodes: make([]nodeAcc, n), links: make([]linkAcc, n)}
	ot.spans = append(ot.spans, span{Parent: -1, Name: "op", Start: ot.start})
	return ot
}

// add records a child span of parent (0 = the op's root) and returns its
// local ID.
func (ot *opTrace) add(parent int, name string, start, end, calls int64) int {
	ot.spans = append(ot.spans, span{ID: len(ot.spans), Parent: parent, Name: name, Start: start, End: end, Calls: calls})
	return len(ot.spans) - 1
}

// wrapProcs interposes the process decorator on every live slot.
func (ot *opTrace) wrapProcs(procs []node.Process) {
	for i, p := range procs {
		if p != nil {
			procs[i] = &tracedProc{inner: p, acc: &ot.nodes[i]}
		}
	}
}

// wrapTransport is the op's runtime.TransportWrapper.
func (ot *opTrace) wrapTransport(id node.ID, inner runtime.Transport) runtime.Transport {
	pool, _ := inner.(runtime.Recycler)
	return &tracedTransport{inner: inner, pool: pool, acc: &ot.links[id]}
}

// traffic sums the op's message accounting, for RunStats.
func (ot *opTrace) traffic() (msgs, bytes int64) {
	for i := range ot.links {
		msgs += ot.links[i].msgs
		bytes += ot.links[i].msgBytes
	}
	return msgs, bytes
}

// finish closes the op: the per-node tables fold into aggregate child spans
// of parent (the span the steps ran under) and everything merges into the
// tracer.
func (ot *opTrace) finish(parent int) {
	end := ot.tr.now()
	ot.spans[0].End = end
	var step [typeSlots]stepAcc
	var hist durHist
	var link linkAcc
	var init int64
	for i := range ot.nodes {
		n := &ot.nodes[i]
		for t := range n.step {
			step[t].add(&n.step[t])
		}
		hist.merge(&n.hist)
		init += n.init
	}
	for i := range ot.links {
		link.add(&ot.links[i])
	}
	at := ot.spans[parent].Start
	if init > 0 {
		ot.add(parent, "proc.init", at, at+init, int64(len(ot.nodes)))
	}
	for t := range step {
		if step[t].calls > 0 {
			ot.add(parent, layerOf(t)+".step", at, at+step[t].busy, step[t].calls)
		}
	}
	if link.sendCalls > 0 {
		ot.add(parent, "runtime.send", at, at+link.sendBusy, link.sendCalls)
		ot.add(parent, "runtime.recv_wait", at, at+link.recvWait, link.recvCalls)
	}

	tr := ot.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	base := len(tr.spans)
	for _, s := range ot.spans {
		s.ID += base
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.Op = tr.ops
		tr.spans = append(tr.spans, s)
	}
	tr.ops++
	for t := range step {
		tr.step[t].add(&step[t])
	}
	tr.hist.merge(&hist)
	tr.init += init
	tr.newNS += ot.newNS
	tr.link.add(&link)
	if len(tr.link.frames) > maxFrames {
		tr.link.frames = tr.link.frames[:maxFrames]
	}
}

// stepTotals sums the step tables over the wire types a layer prefix owns.
func (tr *tracer) stepTotals(layers ...string) (acc stepAcc) {
	for t := range tr.step {
		for _, l := range layers {
			if layerOf(t) == l {
				acc.add(&tr.step[t])
			}
		}
	}
	return acc
}

// selfTimes computes every span's self time: its duration minus the part
// its children cover. Children of a concurrent parent (16 drivers under one
// cluster run) can sum past it; self time is floored at zero there.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// traceFile is the layout of perf/out/trace-<workload>.json.
type traceFile struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Host     hostFacts `json:"host"`
	// SelfNS[i] is Spans[i]'s self time.
	Spans  []span  `json:"spans"`
	SelfNS []int64 `json:"self_ns"`
	// ObsMetrics is the program's own counter snapshot for the traced ops.
	ObsMetrics obs.Metrics `json:"obs_metrics"`
}

// write stores the span file under dir and returns its path.
func (tr *tracer) write(dir, workload string, seed int64, host hostFacts) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tr.mu.Lock()
	tf := traceFile{
		Workload:   workload,
		Seed:       seed,
		Host:       host,
		Spans:      tr.spans,
		SelfNS:     selfTimes(tr.spans),
		ObsMetrics: tr.rec.Snapshot(),
	}
	tr.mu.Unlock()
	b, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
