package binaa

import "delphi/internal/node"

// voteSet is one value's tally: the voters and their count. count mirrors
// the set so quorum checks don't re-popcount.
type voteSet struct {
	v     float64
	set   node.Set
	count int
	// amped (ECHO1 tallies only) records that this node has itself echoed
	// v for the round, in its init bundle or as an amplification.
	amped bool
}

// votes tallies votes per distinct value. An instance-round sees only a
// handful of distinct values (the two round states plus amplified
// midpoints), so a linear scan over a small slice beats a float64-keyed
// map of maps by a wide margin.
type votes struct {
	sets []voteSet
	// spare is room for the next sets' voter bitsets.
	spare node.Set
}

// find returns the tally for v, or nil if no vote for v has been recorded.
func (vs *votes) find(v float64) *voteSet {
	for i := range vs.sets {
		if vs.sets[i].v == v {
			return &vs.sets[i]
		}
	}
	return nil
}

// slot returns the tally for v, allocating it on first use. n is the node
// universe size.
func (vs *votes) slot(v float64, n int) *voteSet {
	if s := vs.find(v); s != nil {
		return s
	}
	set := vs.spare
	if w := node.SetWords(n); len(set) >= w {
		set, vs.spare = set[:w:w], set[w:]
	} else {
		set = make(node.Set, w)
	}
	vs.sets = append(vs.sets, voteSet{v: v, set: set})
	return &vs.sets[len(vs.sets)-1]
}

// add records a vote for v by from. It returns v's new count, or 0 if from
// had already voted v — so a caller can tell exactly when a count lands on a
// threshold.
func (vs *votes) add(from node.ID, v float64, n int) int {
	s := vs.slot(v, n)
	if !s.set.Add(from) {
		return 0
	}
	s.count++
	return s.count
}

// remove withdraws from's vote for v, if present.
func (vs *votes) remove(from node.ID, v float64) {
	if s := vs.find(v); s != nil && s.set.Has(from) {
		s.set.Remove(from)
		s.count--
	}
}
