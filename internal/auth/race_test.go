//go:build race

package auth_test

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
