//go:build race

package sched_test

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = true
