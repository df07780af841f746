//go:build !race

package runtime

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
