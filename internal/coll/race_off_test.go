//go:build !race

package coll

const raceEnabled = false
