package smr_test

import (
	"testing"
	"time"

	"delphi/internal/node"
	"delphi/internal/smr"
)

func TestChannelOrdering(t *testing.T) {
	ch := &smr.Channel{}
	ch.Submit(smr.Submission{From: 2, At: 30 * time.Millisecond})
	ch.Submit(smr.Submission{From: 0, At: 10 * time.Millisecond})
	ch.Submit(smr.Submission{From: 1, At: 20 * time.Millisecond})
	ord := ch.Ordered()
	want := []node.ID{0, 1, 2}
	for i, s := range ord {
		if s.From != want[i] {
			t.Errorf("position %d: from %v, want %v", i, s.From, want[i])
		}
	}
	first, ok := ch.First()
	if !ok || first.From != 0 {
		t.Errorf("First = %+v, ok=%v", first, ok)
	}
}

func TestChannelTieBreak(t *testing.T) {
	ch := &smr.Channel{}
	ch.Submit(smr.Submission{From: 5, At: time.Millisecond})
	ch.Submit(smr.Submission{From: 3, At: time.Millisecond})
	first, _ := ch.First()
	if first.From != 3 {
		t.Errorf("tie broken toward %v, want lower id 3", first.From)
	}
}

func TestEmptyChannel(t *testing.T) {
	ch := &smr.Channel{}
	if _, ok := ch.First(); ok {
		t.Error("empty channel returned a first submission")
	}
}
