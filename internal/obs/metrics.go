package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// registry is the recorder's metric store. Registration (the named lookup)
// is mutex-guarded and meant for setup paths; the returned handles are
// lock-free atomics for the hot paths.
type registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// Counter is a monotonically increasing count. Nil-safe: methods on a nil
// counter do nothing.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-or-maximum instrument. Nil-safe.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Max ratchets the gauge up to v if v exceeds the current value — the
// high-water-mark idiom (inbox occupancy, queue depth).
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current reading (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram summarises a stream of int64 observations (count, sum, min,
// max). Nil-safe. Observations are mutex-guarded: histograms sit on warm
// paths (per-window barrier waits, per-round latencies), not per-message
// ones.
type Histogram struct {
	mu       sync.Mutex
	count    int64
	sum      int64
	min, max int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Counter returns (creating on first use) the named counter; nil on a nil
// recorder.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.reg.mu.Lock()
	defer r.reg.mu.Unlock()
	if r.reg.counters == nil {
		r.reg.counters = make(map[string]*Counter)
	}
	c, ok := r.reg.counters[name]
	if !ok {
		c = &Counter{}
		r.reg.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge; nil on a nil
// recorder.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.reg.mu.Lock()
	defer r.reg.mu.Unlock()
	if r.reg.gauges == nil {
		r.reg.gauges = make(map[string]*Gauge)
	}
	g, ok := r.reg.gauges[name]
	if !ok {
		g = &Gauge{}
		r.reg.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named histogram; nil on a
// nil recorder.
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.reg.mu.Lock()
	defer r.reg.mu.Unlock()
	if r.reg.hists == nil {
		r.reg.hists = make(map[string]*Histogram)
	}
	h, ok := r.reg.hists[name]
	if !ok {
		h = &Histogram{}
		r.reg.hists[name] = h
	}
	return h
}

// Metric is one named reading in a Metrics snapshot. Kind is "counter",
// "gauge", or "histogram"; Value holds the count/gauge reading (for
// histograms, the sample count, with Sum/Min/Max populated).
type Metric struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Value int64  `json:"value"`
	Sum   int64  `json:"sum,omitempty"`
	Min   int64  `json:"min,omitempty"`
	Max   int64  `json:"max,omitempty"`
}

// Metrics is a point-in-time snapshot of every registered metric, sorted by
// name — the one accounting surface the scattered per-layer counters roll
// up into.
type Metrics []Metric

// Snapshot captures the current value of every registered metric; nil on a
// nil recorder.
func (r *Recorder) Snapshot() Metrics {
	if r == nil {
		return nil
	}
	r.reg.mu.Lock()
	out := make(Metrics, 0, len(r.reg.counters)+len(r.reg.gauges)+len(r.reg.hists))
	for name, c := range r.reg.counters {
		out = append(out, Metric{Name: name, Kind: "counter", Value: c.Value()})
	}
	for name, g := range r.reg.gauges {
		out = append(out, Metric{Name: name, Kind: "gauge", Value: g.Value()})
	}
	for name, h := range r.reg.hists {
		h.mu.Lock()
		out = append(out, Metric{Name: name, Kind: "histogram", Value: h.count, Sum: h.sum, Min: h.min, Max: h.max})
		h.mu.Unlock()
	}
	r.reg.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Value returns the named metric's primary reading, or 0 when absent.
func (m Metrics) Value(name string) int64 {
	for i := range m {
		if m[i].Name == name {
			return m[i].Value
		}
	}
	return 0
}

// WriteText renders the snapshot as "name kind value [sum min max]" lines,
// sorted by name — the CLI's metrics dump format.
func (m Metrics) WriteText(w io.Writer) error {
	for i := range m {
		var err error
		if m[i].Kind == "histogram" {
			_, err = fmt.Fprintf(w, "%s %s count=%d sum=%d min=%d max=%d\n",
				m[i].Name, m[i].Kind, m[i].Value, m[i].Sum, m[i].Min, m[i].Max)
		} else {
			_, err = fmt.Fprintf(w, "%s %s %d\n", m[i].Name, m[i].Kind, m[i].Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the snapshot as a JSON array (deterministic: the slice
// is name-sorted and field order is fixed).
func (m Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(m)
}
