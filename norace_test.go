//go:build !race

package dufp_test

// raceEnabled reports whether the tests run under the race detector,
// whose shadow allocations make heap counts meaningless.
const raceEnabled = false
