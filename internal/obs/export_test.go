package obs

// Enabled reports whether the recorder is live (non-nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Enabled reports whether events recorded on t are retained.
func (t *Track) Enabled() bool { return t != nil }

// Get returns the named metric and whether it exists.
func (m Metrics) Get(name string) (Metric, bool) {
	for i := range m {
		if m[i].Name == name {
			return m[i], true
		}
	}
	return Metric{}, false
}
