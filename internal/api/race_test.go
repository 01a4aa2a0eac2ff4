//go:build race

package api

// raceEnabled reports whether the tests run under the race detector,
// whose shadow allocations make heap counts meaningless.
const raceEnabled = true
