//go:build !race

package scheduler

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
