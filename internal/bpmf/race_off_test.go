//go:build !race

package bpmf

const raceEnabled = false
