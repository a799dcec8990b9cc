package spec_test

import (
	"sync/atomic"
	_ "unsafe" // go:linkname
)

// eventScheduleSeed is mpi's schedule seam: while it is nonzero, the
// scheduler a world builds at its first event-engine Run runs a seeded
// draw from its ready set next instead of the ring head. Every such
// order is a valid schedule, so each must reproduce the FIFO answer.
//
//go:linkname eventScheduleSeed repro/internal/mpi.scheduleSeed
var eventScheduleSeed atomic.Uint64

// scheduleSeeds is the number of seeded orders (seeds 1 to scheduleSeeds)
// a test runs on the event engine besides FIFO.
const scheduleSeeds = 8
