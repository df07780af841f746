package dora

import (
	"crypto/ed25519"
	"fmt"
	"sort"

	"delphi/internal/node"
)

// ChakkaSubmission is the Chakka et al. baseline's SMR submission: a list
// of n-t signed raw inputs. The SMR channel orders submissions and every
// oracle adopts the median of the first list.
type ChakkaSubmission struct {
	// Froms are the signers of the collected values.
	Froms []node.ID
	// Values are the signed raw inputs, aligned with Froms.
	Values []float64
	// WireSize is the submission's on-chain size in bytes (the O(nκ) cost
	// the paper attributes to the strawman/DORA family).
	WireSize int
	// VerifyCost is the number of signature verifications the channel
	// performs to validate the submission.
	VerifyCost int
}

// Median returns the median of the submitted values — within the honest
// input range because at most t of the n-t values are Byzantine.
func (s ChakkaSubmission) Median() float64 {
	vals := append([]float64(nil), s.Values...)
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// Chakka runs one oracle of the Chakka et al. baseline. Its output is a
// ChakkaSubmission destined for the SMR channel.
type Chakka struct {
	cfg   node.Config
	keys  Keyring
	env   node.Env
	input float64
	seen  map[node.ID]float64
	done  bool
}

var _ node.Process = (*Chakka)(nil)

// NewChakka creates a baseline oracle with the given raw input.
func NewChakka(cfg node.Config, keys Keyring, input float64) (*Chakka, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(keys.Pubs) != cfg.N {
		return nil, fmt.Errorf("dora: keyring has %d keys for n=%d", len(keys.Pubs), cfg.N)
	}
	return &Chakka{cfg: cfg, keys: keys, input: input, seen: make(map[node.ID]float64)}, nil
}

// Init implements node.Process.
func (c *Chakka) Init(env node.Env) {
	c.env = env
	env.ChargeCompute(node.ComputeCost{SigSigns: 1})
	sig := ed25519.Sign(c.keys.Priv, signedMessage(c.input))
	env.Broadcast(&Sig{V: c.input, Sig: sig})
}

// Deliver implements node.Process.
func (c *Chakka) Deliver(from node.ID, m node.Message) {
	sg, ok := m.(*Sig)
	if !ok || c.done {
		return
	}
	c.env.ChargeCompute(node.ComputeCost{SigVerifies: 1})
	if !ed25519.Verify(c.keys.Pubs[from], signedMessage(sg.V), sg.Sig) {
		return
	}
	if _, dup := c.seen[from]; dup {
		return
	}
	c.seen[from] = sg.V
	if len(c.seen) >= c.cfg.Quorum() {
		c.done = true
		sub := ChakkaSubmission{VerifyCost: len(c.seen)}
		ids := make([]node.ID, 0, len(c.seen))
		for id := range c.seen {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			sub.Froms = append(sub.Froms, id)
			sub.Values = append(sub.Values, c.seen[id])
			sub.WireSize += 8 + 4 + ed25519.SignatureSize
		}
		c.env.Output(sub)
		c.env.Halt()
	}
}
