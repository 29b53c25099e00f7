//go:build race

package linalg

// raceEnabled is set when the tests run under the race detector.
const raceEnabled = true
