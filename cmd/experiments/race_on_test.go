//go:build race

package main

// raceEnabled reports that this binary was built with the race
// detector, which slows the full report from seconds to over a minute.
const raceEnabled = true
