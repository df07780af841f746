package runtime

import (
	"net"

	"delphi/internal/auth"
	"delphi/internal/node"
)

// Test-only views of the fabric's unexported wiring.

// MaxFrameSize is the sealed-frame cap both ends of a tcp link enforce.
const MaxFrameSize = maxFrameSize

// NewTCPNetAccept is NewTCPNet with the accept call of each wiring step
// injected.
var NewTCPNetAccept = newTCPNet

// ConnEnds returns how many connection ends the fabric's cores have
// registered, dialed or wired plus accepted: two per connection.
func (p *TCPNet) ConnEnds() int {
	ends := 0
	for _, c := range p.cores {
		c.mu.Lock()
		ends += len(c.dialed) + len(c.accepted)
		c.mu.Unlock()
	}
	return ends
}

// BreakLink closes both ends of the connection nodes i and j currently write
// to each other on, as a fault under the fabric would; neither core is told.
func (p *TCPNet) BreakLink(i, j node.ID) {
	for _, end := range [2][2]node.ID{{i, j}, {j, i}} {
		pc := &p.cores[end[0]].peers[end[1]]
		pc.mu.Lock()
		pc.c.Close()
		pc.mu.Unlock()
	}
}

// NewTCPDial is NewTCP with an injected dialer (nil means net.Dial).
func NewTCPDial(self node.ID, addrs []string, ln net.Listener, a *auth.Auth, dial DialFunc) Transport {
	t := newTCPCore(self, addrs, ln, dial, nil)
	return &endpoint{via: t, id: self, in: t.in, auth: a, owner: t}
}

// Addr returns node id's listen address.
func (p *TCPNet) Addr(id node.ID) string { return p.addrs[id] }

// EAGAINReads sums the fabric's socket reads that found nothing to read.
func (p *TCPNet) EAGAINReads() uint64 {
	var n uint64
	for _, c := range p.cores {
		n += c.eagains.Load()
	}
	return n
}

// Recycle returns a frame buffer to node id's inbox pool.
func (h *Hub) Recycle(id node.ID, buf []byte) { h.inbox[id].recycle(buf) }
