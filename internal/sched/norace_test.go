//go:build !race

package sched_test

// raceEnabled is set when the tests run under the race detector.
const raceEnabled = false
