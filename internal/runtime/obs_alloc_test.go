package runtime

import (
	"testing"
)

// These tests pin the obs layer's zero-cost-when-disabled contract at its
// hottest call sites: the exact instrumentation statements executed per
// driver flush, per transport drop/dial, and per stale demuxed frame must
// not allocate when no recorder is attached — every handle nil, every call
// a nil-check and return. They are the regression gate for the rule that
// instrumented code resolves handles once and calls them unconditionally.

// TestDisabledObsZeroAllocDriverFlush covers the driver's flush hot path
// (see Driver.flush): a flush counter, a batch-size counter, and a trace
// instant fire on every outbound batch.
func TestDisabledObsZeroAllocDriverFlush(t *testing.T) {
	d := &Driver{} // no WithDriverObs: the disabled state
	if allocs := testing.AllocsPerRun(1000, func() {
		d.obsFlushes.Inc()
		d.obsFlushFrames.Add(flushEvery)
		d.obsTrack.Instant("driver.flush", flushEvery, 0)
	}); allocs != 0 {
		t.Errorf("disabled driver flush hooks: %.1f allocs/op, want 0", allocs)
	}
}

// TestDisabledObsZeroAllocTransport covers the transport hot paths: the
// hub's and tcp core's drop counters, the tcp core's late-close and write
// counters, the tcp dial instant, and the demux's stale-frame counter.
func TestDisabledObsZeroAllocTransport(t *testing.T) {
	h := &Hub{}           // never Observe()d
	tr := &tcpTransport{} // never Observe()d
	m := &InstanceMux{}   // never Observe()d
	if allocs := testing.AllocsPerRun(1000, func() {
		h.obsDrops.Inc()
		tr.obsDrops.Inc()
		tr.obsLateCloses.Inc()
		tr.obsWrites.Inc()
		tr.obsDials.Instant("tcp.dial", 0, 1)
		m.obsStale.Inc()
	}); allocs != 0 {
		t.Errorf("disabled transport hooks: %.1f allocs/op, want 0", allocs)
	}
}
