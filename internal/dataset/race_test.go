//go:build race

package dataset

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation allocates.
const raceEnabled = true
