//go:build !race

package summa

const raceEnabled = false
