package dora

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"maps"
	"math"
	"slices"

	"delphi/internal/core"
	"delphi/internal/node"
	"delphi/internal/wire"
)

// Sig is a node's signature on a (rounded) value.
type Sig struct {
	// V is the signed value.
	V float64
	// Sig is the ed25519 signature over the canonical encoding of V.
	Sig []byte
}

var _ node.Message = (*Sig)(nil)

// Type implements node.Message.
func (m *Sig) Type() uint8 { return wire.TypeDoraSig }

// WireSize implements node.Message.
func (m *Sig) WireSize() int {
	return 1 + 8 + wire.UVarintSize(uint64(len(m.Sig))) + len(m.Sig)
}

// AppendBinary implements node.Message.
func (m *Sig) AppendBinary(b []byte) ([]byte, error) {
	w := wire.Writer(b)
	w.F64(m.V)
	w.BytesLP(m.Sig)
	return w, nil
}

// DecodeSig decodes a Sig body.
func DecodeSig(body []byte, a *wire.Arena) (node.Message, error) {
	r := wire.NewReader(body)
	m := wire.New(a, Sig{})
	m.V = r.F64()
	m.Sig = a.Copy(r.BytesLP())
	return m, r.Err()
}

// Register installs the package's decoders.
func Register(reg *wire.Registry) error {
	return reg.Register(wire.TypeDoraSig, DecodeSig)
}

// Certificate is the succinct attested output: t+1 signatures on one value.
type Certificate struct {
	// Value is the attested value (a multiple of ε).
	Value float64
	// Signers lists the contributing nodes.
	Signers []node.ID
	// Sigs are the signatures, aligned with Signers.
	Sigs [][]byte
	// DelphiResult is the underlying approximate-agreement result.
	DelphiResult core.Result
}

// WireSizeEstimate is the certificate's size if submitted to the chain.
func (c *Certificate) WireSizeEstimate() int {
	return 8 + len(c.Signers)*(4+ed25519.SignatureSize)
}

// Verify checks every signature in the certificate against the keyring.
func (c *Certificate) Verify(pubs []ed25519.PublicKey, f int) error {
	if len(c.Signers) < f+1 {
		return fmt.Errorf("dora: certificate has %d signers, need %d", len(c.Signers), f+1)
	}
	msg := signedMessage(c.Value)
	seen := make(map[node.ID]bool, len(c.Signers))
	for i, id := range c.Signers {
		if seen[id] {
			return fmt.Errorf("dora: duplicate signer %v", id)
		}
		seen[id] = true
		if int(id) < 0 || int(id) >= len(pubs) {
			return fmt.Errorf("dora: unknown signer %v", id)
		}
		if !ed25519.Verify(pubs[id], msg, c.Sigs[i]) {
			return fmt.Errorf("dora: invalid signature from %v", id)
		}
	}
	return nil
}

// RoundToEps rounds v to the nearest integer multiple of eps.
func RoundToEps(v, eps float64) float64 {
	return math.Round(v/eps) * eps
}

// Process runs Delphi followed by the DORA certificate round. It implements
// node.Process; its final output is a Certificate.
type Process struct {
	cfg     core.Config
	keys    Keyring
	env     node.Env
	delphi  *core.Delphi
	result  *core.Result
	rounded float64
	sigs    map[float64]map[node.ID][]byte
	done    bool
}

var _ node.Process = (*Process)(nil)

// New creates a DORA node with the given input.
func New(cfg core.Config, keys Keyring, input float64) (*Process, error) {
	d, err := core.New(cfg, input)
	if err != nil {
		return nil, err
	}
	if len(keys.Pubs) != cfg.N {
		return nil, fmt.Errorf("dora: keyring has %d keys for n=%d", len(keys.Pubs), cfg.N)
	}
	return &Process{cfg: cfg, keys: keys, delphi: d, sigs: make(map[float64]map[node.ID][]byte)}, nil
}

// Init implements node.Process.
func (p *Process) Init(env node.Env) {
	p.env = env
	p.delphi.Init(&interceptEnv{Env: env, p: p})
}

// interceptEnv captures the embedded Delphi's Output/Halt so the DORA round
// can run afterwards on the same node.
type interceptEnv struct {
	node.Env
	p *Process
}

func (e *interceptEnv) Output(v any) {
	if r, ok := v.(core.Result); ok {
		e.p.onDelphiDone(r)
		return
	}
	e.Env.Output(v)
}

func (e *interceptEnv) Halt() {
	// Swallow the inner protocol's halt; the DORA round is still running.
}

// SentArena implements wire.Lender with the arena the node's env lends.
func (e *interceptEnv) SentArena() *wire.Arena { return wire.SentArena(e.Env) }

func (p *Process) onDelphiDone(r core.Result) {
	p.result = &r
	p.rounded = RoundToEps(r.Output, p.cfg.Params.Eps)
	p.env.ChargeCompute(node.ComputeCost{SigSigns: 1})
	sig := ed25519.Sign(p.keys.Priv, signedMessage(p.rounded))
	p.env.Broadcast(&Sig{V: p.rounded, Sig: sig})
	p.tryCertify()
}

// Deliver implements node.Process.
func (p *Process) Deliver(from node.ID, m node.Message) {
	sg, ok := m.(*Sig)
	if !ok {
		p.delphi.Deliver(from, m)
		return
	}
	if p.done {
		return
	}
	p.env.ChargeCompute(node.ComputeCost{SigVerifies: 1})
	if !ed25519.Verify(p.keys.Pubs[from], signedMessage(sg.V), sg.Sig) {
		return
	}
	set := p.sigs[sg.V]
	if set == nil {
		set = make(map[node.ID][]byte)
		p.sigs[sg.V] = set
	}
	if _, dup := set[from]; dup {
		return
	}
	set[from] = sg.Sig
	p.tryCertify()
}

func (p *Process) tryCertify() {
	if p.done || p.result == nil {
		return
	}
	for v, set := range p.sigs {
		if len(set) < p.cfg.F+1 {
			continue
		}
		cert := Certificate{Value: v, DelphiResult: *p.result}
		for _, id := range slices.Sorted(maps.Keys(set)) {
			cert.Signers = append(cert.Signers, id)
			// A copy: the delivered signature lives only as long as its run.
			cert.Sigs = append(cert.Sigs, bytes.Clone(set[id]))
		}
		p.done = true
		p.env.Output(cert)
		p.env.Halt()
		return
	}
}
