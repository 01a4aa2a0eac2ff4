//go:build race

package experiment

// raceEnabled reports whether the tests run under the race detector,
// which makes the full-protocol campaign too slow to run.
const raceEnabled = true
