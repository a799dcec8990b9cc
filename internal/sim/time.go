package sim

import "fmt"

// Time is a virtual duration or instant measured in picoseconds.
//
// Picoseconds keep the arithmetic integral: a 10 GB/s link costs
// 100 ps/byte and a 1.3 µs network latency is 1 300 000 ps, so every cost
// in the model is an exact int64 and simulations are bit-reproducible.
type Time int64

// Common virtual-time units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Us reports t in microseconds, the unit used by every figure in the
// paper.
func (t Time) Us() float64 { return float64(t) / float64(Microsecond) }

// Ms reports t in milliseconds (used by the SUMMA figures for large
// blocks).
func (t Time) Ms() float64 { return float64(t) / float64(Millisecond) }

// String formats t with an adaptive unit, e.g. "12.3us" or "4.56ms".
func (t Time) String() string {
	switch {
	case t < 10*Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < 10*Microsecond:
		return fmt.Sprintf("%.2fus", t.Us())
	case t < Millisecond:
		return fmt.Sprintf("%.1fus", t.Us())
	case t < 10*Second:
		return fmt.Sprintf("%.2fms", t.Ms())
	default:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	}
}

// MaxTime returns the later of a and b.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
