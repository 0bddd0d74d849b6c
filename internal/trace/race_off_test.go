//go:build !race

package trace_test

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = false
