// Package smr models the external blockchain the paper's oracle protocols
// submit attested values to (the "SMR channel" of §V): a total-order
// service that sequences submissions and exposes the first valid one. The
// chain itself is outside the n-node system, so it is modelled as a passive
// ordering data structure driven by the experiment harness with the
// simulator's virtual submission timestamps.
package smr

import (
	"sort"
	"time"

	"delphi/internal/node"
)

// Submission is one oracle node's submission to the channel.
type Submission struct {
	// From is the submitting node.
	From node.ID
	// At is the (virtual) submission time; the channel orders by it.
	At time.Duration
	// Payload is the submitted content.
	Payload []byte
	// VerifyCost is the number of signature verifications the channel
	// must perform to validate the submission (counted for Table III).
	VerifyCost int
}

// Channel is the simulated total-order SMR service.
type Channel struct {
	subs []Submission
}

// Submit appends a submission.
func (c *Channel) Submit(s Submission) {
	c.subs = append(c.subs, s)
}

// Ordered returns the submissions in channel order: by time, then by
// submitter id as the deterministic tiebreak.
func (c *Channel) Ordered() []Submission {
	out := append([]Submission(nil), c.subs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].From < out[j].From
	})
	return out
}

// First returns the first submission in channel order.
func (c *Channel) First() (Submission, bool) {
	ord := c.Ordered()
	if len(ord) == 0 {
		return Submission{}, false
	}
	return ord[0], true
}

// Len returns the number of accepted submissions.
func (c *Channel) Len() int { return len(c.subs) }
