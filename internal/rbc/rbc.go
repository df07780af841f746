// Package rbc implements Bracha's reliable broadcast as a multi-instance
// engine. It is the substrate the baseline protocols build on: FIN-style
// ACS reliably broadcasts every node's input, and Abraham et al.'s
// approximate agreement reliably broadcasts every node's per-round state.
//
// Instances are keyed by (initiator, tag); a node may initiate many
// broadcasts with distinct tags, in a range [0, tags) its caller fixes (FIN
// uses one tag, Abraham et al. one per round). The engine keeps them in a
// dense table indexed by tag and initiator, and counts each instance's
// ECHOs and READYs as a short list of distinct payloads, compared by bytes,
// each with its voters' node.Set. A message naming an initiator outside
// [0, n) or a tag outside the range, or sent from outside [0, n), is dropped
// before any state exists, so a Byzantine peer cannot make honest nodes
// allocate instances without bound.
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

// MarshalBinary implements node.Message.
func (m *Init) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter(m.WireSize())
	w.U32(m.Tag)
	w.BytesLP(m.Payload)
	return w.Bytes(), nil
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

// MarshalBinary implements node.Message.
func (m *Echo) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter(m.WireSize())
	w.U32(uint32(m.Initiator))
	w.U32(m.Tag)
	w.BytesLP(m.Payload)
	return w.Bytes(), nil
}

// Ready is the third-phase commitment carrying the payload (so delivery
// works even if the INIT never arrived).
type Ready struct {
	// Initiator identifies the instance together with Tag.
	Initiator node.ID
	// Tag is the instance tag.
	Tag uint32
	// Payload is the committed content.
	Payload []byte
}

// Type implements node.Message.
func (m *Ready) Type() uint8 { return wire.TypeRBCReady }

// WireSize implements node.Message.
func (m *Ready) WireSize() int {
	return 1 + 4 + 4 + wire.UVarintSize(uint64(len(m.Payload))) + len(m.Payload)
}

// MarshalBinary implements node.Message.
func (m *Ready) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter(m.WireSize())
	w.U32(uint32(m.Initiator))
	w.U32(m.Tag)
	w.BytesLP(m.Payload)
	return w.Bytes(), nil
}

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
	r := wire.NewReader(body)
	m := wire.New(a, Echo{})
	m.Initiator = node.ID(r.U32())
	m.Tag = r.U32()
	m.Payload = a.Copy(r.BytesLP())
	return m, r.Err()
}

// DecodeReady decodes a Ready body.
func DecodeReady(body []byte, a *wire.Arena) (node.Message, error) {
	r := wire.NewReader(body)
	m := wire.New(a, Ready{})
	m.Initiator = node.ID(r.U32())
	m.Tag = r.U32()
	m.Payload = a.Copy(r.BytesLP())
	return m, r.Err()
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

// tally counts one payload's distinct voters. The payload is the first
// voter's message's own, held read-only like the message.
type tally struct {
	payload []byte
	voters  node.Set
	count   int
}

// instance is the per-broadcast state machine.
type instance struct {
	born, echoed, readied, delivered bool
	// bornAt/echoAt/readyAt are trace-clock readings of the instance's
	// phase transitions (zero when tracing is disabled; they only feed the
	// emitted spans).
	bornAt, echoAt, readyAt int64
	// echoes and readies count votes per distinct payload: one, unless the
	// initiator equivocates.
	echoes, readies []tally
}

// Engine runs all RBC instances for one node. Embed it in a protocol and
// route Init/Echo/Ready messages to Handle.
type Engine struct {
	cfg     node.Config
	env     node.Env
	track   *obs.Track
	deliver func(Key, []byte)
	// rows[tag][initiator] is the instance; a tag's row is allocated on its
	// first message.
	rows [][]instance
	// spare is room for the next tallies' voter sets.
	spare node.Set
}

// NewEngine creates an engine for tags in [0, tags); deliver is invoked
// exactly once per delivered instance.
func NewEngine(cfg node.Config, env node.Env, tags int, deliver func(Key, []byte)) *Engine {
	return &Engine{cfg: cfg, env: env, track: node.TrackOf(env), deliver: deliver, rows: make([][]instance, tags)}
}

// inst returns k's instance for a message from from, or nil when the sender,
// k's initiator or k's tag is out of range.
func (e *Engine) inst(from node.ID, k Key) *instance {
	if uint(from) >= uint(e.cfg.N) || uint(k.Initiator) >= uint(e.cfg.N) || uint64(k.Tag) >= uint64(len(e.rows)) {
		return nil
	}
	if e.rows[k.Tag] == nil {
		e.rows[k.Tag] = make([]instance, e.cfg.N)
	}
	x := &e.rows[k.Tag][k.Initiator]
	if !x.born {
		x.born, x.bornAt = true, e.track.Now()
	}
	return x
}

// vote records from's vote for payload in ts. It returns the payload's new
// count, or 0 if from had already voted for it.
func (e *Engine) vote(ts *[]tally, from node.ID, payload []byte) int {
	for i := range *ts {
		if t := &(*ts)[i]; bytes.Equal(t.payload, payload) {
			if !t.voters.Add(from) {
				return 0
			}
			t.count++
			return t.count
		}
	}
	w := node.SetWords(e.cfg.N)
	if len(e.spare) < w {
		e.spare = make(node.Set, 2*e.cfg.N*w)
	}
	t := tally{payload: payload, voters: e.spare[:w:w], count: 1}
	e.spare = e.spare[w:]
	t.voters.Add(from)
	*ts = append(*ts, t)
	return 1
}

// Broadcast initiates a reliable broadcast of payload under tag.
func (e *Engine) Broadcast(tag uint32, payload []byte) {
	e.env.Broadcast(&Init{Tag: tag, Payload: payload})
}

// Handle routes an RBC message; it returns true if the message was an RBC
// message (handled), false otherwise.
func (e *Engine) Handle(from node.ID, m node.Message) bool {
	switch msg := m.(type) {
	case *Init:
		e.onInit(from, msg)
	case *Echo:
		e.onEcho(from, msg)
	case *Ready:
		e.onReady(from, msg)
	default:
		return false
	}
	return true
}

func (e *Engine) onInit(from node.ID, m *Init) {
	x := e.inst(from, Key{Initiator: from, Tag: m.Tag})
	if x == nil || x.echoed {
		return
	}
	x.echoed = true
	x.echoAt = e.track.Now()
	e.env.Broadcast(&Echo{Initiator: from, Tag: m.Tag, Payload: m.Payload})
}

// traceReady closes the instance's echo-collection phase span when the
// READY goes out ("rbc.echo" spans echo broadcast → ready broadcast).
func (e *Engine) traceReady(k Key, x *instance) {
	start := x.echoAt
	if start == 0 {
		start = x.bornAt
	}
	e.track.Span("rbc.echo", start, int64(k.Initiator), int64(k.Tag))
	x.readyAt = e.track.Now()
}

func (e *Engine) onEcho(from node.ID, m *Echo) {
	k := Key{Initiator: m.Initiator, Tag: m.Tag}
	x := e.inst(from, k)
	if x == nil {
		return
	}
	if e.vote(&x.echoes, from, m.Payload) >= e.cfg.Quorum() && !x.readied {
		x.readied = true
		e.traceReady(k, x)
		e.env.Broadcast(&Ready{Initiator: m.Initiator, Tag: m.Tag, Payload: m.Payload})
	}
}

func (e *Engine) onReady(from node.ID, m *Ready) {
	k := Key{Initiator: m.Initiator, Tag: m.Tag}
	x := e.inst(from, k)
	if x == nil {
		return
	}
	c := e.vote(&x.readies, from, m.Payload)
	if c == 0 {
		return
	}
	// Amplify on t+1 READYs.
	if c >= e.cfg.F+1 && !x.readied {
		x.readied = true
		e.traceReady(k, x)
		e.env.Broadcast(&Ready{Initiator: m.Initiator, Tag: m.Tag, Payload: m.Payload})
	}
	// Deliver on 2t+1 READYs.
	if c >= 2*e.cfg.F+1 && !x.delivered {
		x.delivered = true
		// "rbc.ready" spans ready broadcast → delivery quorum.
		e.track.Span("rbc.ready", x.readyAt, int64(k.Initiator), int64(k.Tag))
		e.track.Instant("rbc.deliver", int64(k.Initiator), int64(k.Tag))
		e.deliver(k, m.Payload)
	}
}
