//go:build race

package bench

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = true
