//go:build !race

package platform

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = false
