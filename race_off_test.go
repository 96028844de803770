//go:build !race

package repro_test

// raceEnabled reports a -race build, whose instrumentation changes what
// escapes to the heap: allocation counts are exact only without it.
const raceEnabled = false
