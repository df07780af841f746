// Package rbc implements Bracha's reliable broadcast as a multi-instance
// engine. It is the substrate the baseline protocols build on: FIN-style
// ACS reliably broadcasts every node's input, and Abraham et al.'s
// approximate agreement reliably broadcasts every node's per-round state.
//
// Instances are keyed by (initiator, tag); a node may initiate many
// broadcasts with distinct tags, in a range [0, tags) its caller fixes (FIN
// uses one tag, Abraham et al. one per round). The engine keeps one row per
// tag: its instances by initiator, each counting the ECHOs and READYs for its
// first voted payload, with who has voted each kind in node.Sets carved from
// the row's one slab. A payload is compared by slice identity, then by bytes;
// another payload, which only an equivocating initiator causes, is tallied in
// the instance's overflow list. Only a sender's first ECHO and first READY in
// an instance count (Bracha's "first ECHO from p"), so a Byzantine sender
// adds at most one tally per instance and kind. A message naming an initiator
// outside [0, n) or a tag outside the range, or sent from outside [0, n), is
// dropped before any state exists, so a Byzantine peer cannot make honest
// nodes allocate instances without bound.
//
// Properties: validity (an honest initiator's payload is delivered),
// agreement (no two honest nodes deliver different payloads for the same
// instance), and totality (if one honest node delivers, all do). Cost: O(n²)
// messages of O(l) bits per instance.
package rbc

import (
	"bytes"

	"delphi/internal/node"
	"delphi/internal/obs"
	"delphi/internal/wire"
)

// Key identifies one broadcast instance.
type Key struct {
	// Initiator is the broadcasting node.
	Initiator node.ID
	// Tag disambiguates multiple broadcasts by the same initiator
	// (e.g. the round number).
	Tag uint32
}

// Init is the initiator's proposal message.
type Init struct {
	// Tag is the instance tag (the initiator is the authenticated sender).
	Tag uint32
	// Payload is the broadcast content.
	Payload []byte
}

// Type implements node.Message.
func (m *Init) Type() uint8 { return wire.TypeRBCInit }

// WireSize implements node.Message.
func (m *Init) WireSize() int {
	return 1 + 4 + wire.UVarintSize(uint64(len(m.Payload))) + len(m.Payload)
}

// AppendBinary implements node.Message.
func (m *Init) AppendBinary(b []byte) ([]byte, error) {
	w := wire.Writer(b)
	w.U32(m.Tag)
	w.BytesLP(m.Payload)
	return w, nil
}

// Echo is the second-phase echo carrying the payload.
type Echo struct {
	// Initiator identifies the instance together with Tag.
	Initiator node.ID
	// Tag is the instance tag.
	Tag uint32
	// Payload is the echoed content.
	Payload []byte
}

// Type implements node.Message.
func (m *Echo) Type() uint8 { return wire.TypeRBCEcho }

// WireSize implements node.Message.
func (m *Echo) WireSize() int {
	return 1 + 4 + 4 + wire.UVarintSize(uint64(len(m.Payload))) + len(m.Payload)
}

// AppendBinary implements node.Message.
func (m *Echo) AppendBinary(b []byte) ([]byte, error) {
	w := wire.Writer(b)
	w.U32(uint32(m.Initiator))
	w.U32(m.Tag)
	w.BytesLP(m.Payload)
	return w, nil
}

// decode reads an Echo or Ready body into m.
func (m *Echo) decode(body []byte, a *wire.Arena) error {
	r := wire.NewReader(body)
	m.Initiator = node.ID(r.U32())
	m.Tag = r.U32()
	m.Payload = a.Copy(r.BytesLP())
	return r.Err()
}

// Ready is the third-phase commitment carrying the payload (so delivery
// works even if the INIT never arrived). Its fields and layout are Echo's.
type Ready Echo

// Type implements node.Message.
func (m *Ready) Type() uint8 { return wire.TypeRBCReady }

// WireSize implements node.Message.
func (m *Ready) WireSize() int { return (*Echo)(m).WireSize() }

// AppendBinary implements node.Message.
func (m *Ready) AppendBinary(b []byte) ([]byte, error) { return (*Echo)(m).AppendBinary(b) }

// DecodeInit decodes an Init body.
func DecodeInit(body []byte, a *wire.Arena) (node.Message, error) {
	r := wire.NewReader(body)
	m := wire.New(a, Init{})
	m.Tag = r.U32()
	m.Payload = a.Copy(r.BytesLP())
	return m, r.Err()
}

// DecodeEcho decodes an Echo body.
func DecodeEcho(body []byte, a *wire.Arena) (node.Message, error) {
	m := wire.New(a, Echo{})
	return m, m.decode(body, a)
}

// DecodeReady decodes a Ready body.
func DecodeReady(body []byte, a *wire.Arena) (node.Message, error) {
	m := wire.New(a, Ready{})
	return m, (*Echo)(m).decode(body, a)
}

// Register installs the package's decoders.
func Register(reg *wire.Registry) error {
	if err := reg.Register(wire.TypeRBCInit, DecodeInit); err != nil {
		return err
	}
	if err := reg.Register(wire.TypeRBCEcho, DecodeEcho); err != nil {
		return err
	}
	return reg.Register(wire.TypeRBCReady, DecodeReady)
}

// instance is one broadcast's state: its phases and the ECHO and READY
// counts of its first voted payload. Its row's slab holds who has voted each
// kind, for any payload. Votes for any other payload, which only an
// equivocating initiator causes, are tallied in more.
type instance struct {
	born, echoed, readied, delivered bool
	n                                [2]int32 // ECHOs, READYs for payload
	payload                          []byte
	more                             *[2][]tally
	// bornAt/echoAt/readyAt are trace-clock readings of the instance's
	// phase transitions (zero when tracing is disabled; they only feed the
	// emitted spans).
	bornAt, echoAt, readyAt int64
}

// tally counts the voters for a further payload.
type tally struct {
	payload []byte
	count   int32
}

// row is one tag's instances, by initiator, and their ECHO and READY voter
// sets, side by side in one slab.
type row struct {
	insts  []instance
	voters node.Set
}

// Engine runs all RBC instances for one node. Embed it in a protocol and
// route Init/Echo/Ready messages to Handle.
type Engine struct {
	cfg     node.Config
	env     node.Env
	track   *obs.Track
	deliver func(Key, []byte)
	// rows[tag] is made on the tag's first message.
	rows []row
	sent *wire.Arena // what it sends is carved from, lent by env (see wire.Lender)
}

// NewEngine creates an engine for tags in [0, tags); deliver is invoked
// exactly once per delivered instance.
func NewEngine(cfg node.Config, env node.Env, tags int, deliver func(Key, []byte)) *Engine {
	return &Engine{cfg: cfg, env: env, track: node.TrackOf(env), deliver: deliver, rows: make([]row, tags), sent: wire.SentArena(env)}
}

// inst returns k's row and instance for a message from from, or nils when
// the sender, k's initiator or k's tag is out of range.
func (e *Engine) inst(from node.ID, k Key) (*row, *instance) {
	if uint(from) >= uint(e.cfg.N) || uint(k.Initiator) >= uint(e.cfg.N) || uint64(k.Tag) >= uint64(len(e.rows)) {
		return nil, nil
	}
	r := &e.rows[k.Tag]
	if r.insts == nil {
		r.insts = make([]instance, e.cfg.N)
		r.voters = make(node.Set, 2*e.cfg.N*node.SetWords(e.cfg.N))
	}
	x := &r.insts[k.Initiator]
	if !x.born {
		x.born, x.bornAt = true, e.track.Now()
	}
	return r, x
}

// same reports whether a and b hold the same bytes, by slice identity first:
// on the simulator every honest vote carries the initiator's own slice.
func same(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0] || bytes.Equal(a, b))
}

// vote records from's ECHO (kind 0) or READY (kind 1) for payload in
// initiator i's instance x of row r. It returns the payload's new count, or
// 0 if from had already voted that kind in x, for any payload.
func (e *Engine) vote(r *row, i node.ID, x *instance, kind int, from node.ID, payload []byte) int {
	if x.n == [2]int32{} {
		x.payload = payload
	}
	w := node.SetWords(e.cfg.N)
	if !r.voters[(2*int(i)+kind)*w:][:w].Add(from) {
		return 0
	}
	c := &x.n[kind]
	if !same(x.payload, payload) {
		c = further(x, kind, payload)
	}
	*c++
	return int(*c)
}

// further returns x's count of kind for a payload other than its first, made
// on the payload's first vote. A sender adds at most one, so there are fewer
// than n to search.
func further(x *instance, kind int, payload []byte) *int32 {
	if x.more == nil {
		x.more = new([2][]tally)
	}
	ts := &x.more[kind]
	for i := range *ts {
		if same((*ts)[i].payload, payload) {
			return &(*ts)[i].count
		}
	}
	*ts = append(*ts, tally{payload: payload})
	return &(*ts)[len(*ts)-1].count
}

// Broadcast initiates a reliable broadcast of payload under tag.
func (e *Engine) Broadcast(tag uint32, payload []byte) {
	e.env.Broadcast(wire.New(e.sent, Init{Tag: tag, Payload: payload}))
}

// Handle routes an RBC message; it returns true if the message was an RBC
// message (handled), false otherwise.
func (e *Engine) Handle(from node.ID, m node.Message) bool {
	switch msg := m.(type) {
	case *Init:
		e.onInit(from, msg)
	case *Echo:
		e.onVote(from, msg, 0)
	case *Ready:
		e.onVote(from, (*Echo)(msg), 1)
	default:
		return false
	}
	return true
}

func (e *Engine) onInit(from node.ID, m *Init) {
	_, x := e.inst(from, Key{Initiator: from, Tag: m.Tag})
	if x == nil || x.echoed {
		return
	}
	x.echoed, x.echoAt = true, e.track.Now()
	e.env.Broadcast(wire.New(e.sent, Echo{Initiator: from, Tag: m.Tag, Payload: m.Payload}))
}

// onVote handles an ECHO (kind 0) or a READY (kind 1).
func (e *Engine) onVote(from node.ID, m *Echo, kind int) {
	k := Key{Initiator: m.Initiator, Tag: m.Tag}
	r, x := e.inst(from, k)
	if x == nil {
		return
	}
	c := e.vote(r, k.Initiator, x, kind, from, m.Payload)
	// READY on n−t ECHOs, or amplify on t+1 READYs.
	if c >= [2]int{e.cfg.Quorum(), e.cfg.F + 1}[kind] && !x.readied {
		// "rbc.echo" spans echo broadcast (or birth) → ready broadcast.
		e.track.Span("rbc.echo", max(x.echoAt, x.bornAt), int64(k.Initiator), int64(k.Tag))
		x.readied, x.readyAt = true, e.track.Now()
		e.env.Broadcast(wire.New(e.sent, Ready{Initiator: m.Initiator, Tag: m.Tag, Payload: m.Payload}))
	}
	// Deliver on 2t+1 READYs.
	if kind == 1 && c >= 2*e.cfg.F+1 && !x.delivered {
		x.delivered = true
		// "rbc.ready" spans ready broadcast → delivery quorum.
		e.track.Span("rbc.ready", x.readyAt, int64(k.Initiator), int64(k.Tag))
		e.track.Instant("rbc.deliver", int64(k.Initiator), int64(k.Tag))
		e.deliver(k, m.Payload)
	}
}
