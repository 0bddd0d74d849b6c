//go:build !race

package stencil

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = false
