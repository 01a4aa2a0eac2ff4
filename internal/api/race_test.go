//go:build race

package api

// RaceEnabled reports whether the tests run under the race detector,
// whose shadow allocations make heap counts meaningless and whose
// slowdown makes wall-clock budgets meaningless. It is exported for the
// package's external tests.
const RaceEnabled = true
