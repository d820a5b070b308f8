//go:build race

package serve

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation allocates.
const raceEnabled = true
