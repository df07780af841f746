//go:build race

package backend_test

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
