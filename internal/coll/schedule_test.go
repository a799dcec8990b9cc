package coll

import (
	"fmt"
	"sync/atomic"
	_ "unsafe" // go:linkname
)

// eventScheduleSeed is mpi's schedule seam: while it is nonzero, the
// scheduler a world builds at its first event-engine Run runs a seeded
// draw from its ready set next instead of the ring head. Every such
// order is a valid schedule, so each must reproduce the FIFO pins.
//
//go:linkname eventScheduleSeed repro/internal/mpi.scheduleSeed
var eventScheduleSeed atomic.Uint64

// scheduleSeeds is the number of seeded orders (seeds 1 to scheduleSeeds)
// a golden row runs on the event engine besides FIFO.
const scheduleSeeds = 8

// scheduleName names an event schedule in a failure: FIFO, or the seed
// that reproduces it through eventScheduleSeed.
func scheduleName(seed uint64) string {
	if seed == 0 {
		return "FIFO"
	}
	return fmt.Sprintf("schedule seed %d", seed)
}
