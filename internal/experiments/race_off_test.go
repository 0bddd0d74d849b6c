//go:build !race

package experiments

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = false
