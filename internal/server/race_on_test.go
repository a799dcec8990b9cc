//go:build race

package server_test

// raceEnabled reports that this binary was built with the race
// detector, whose instrumentation allocates and breaks exact
// allocation-count assertions.
const raceEnabled = true
