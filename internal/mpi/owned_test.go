package mpi

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestPriceTableIsTheModel: the per-class price a world resolves at
// construction is the cost model's XferCost for every hop class and
// size, for both profiles as shipped, with a LevelCosts entry for every
// class, and with none.
func TestPriceTableIsTheModel(t *testing.T) {
	for _, profile := range []func() *sim.CostModel{sim.HazelHenCray, sim.VulcanOpenMPI} {
		every, none := profile(), profile()
		every.LevelCosts = map[sim.HopClass]sim.LevelCost{}
		for c := sim.HopSelf; c <= sim.HopGroup; c++ {
			every.LevelCosts[c] = sim.LevelCost{Alpha: sim.Time(1000 * (int(c) + 3)), BetaPsPerByte: int64(7 * (int(c) + 1))}
		}
		none.LevelCosts = nil
		for _, m := range []*sim.CostModel{profile(), every, none} {
			w, err := NewWorld(m, sim.MustUniform(2, 2))
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s with %d level costs", m.Name, len(m.LevelCosts))
			for c := sim.HopSelf; c <= sim.HopGroup; c++ {
				for _, n := range []int{0, 1, m.EagerLimit, m.EagerLimit + 1, 1 << 20} {
					if got, want := w.hopCost[c].Xfer(n), m.XferCost(c, n); got != want {
						t.Errorf("%s: %s at %d B priced %d ps, model says %d ps", label, c, n, int64(got), int64(want))
					}
				}
			}
			w.Close()
		}
	}
}

// TestRecordsCrossEngines alternates event and goroutine worlds over one
// body. A live event Run feeds its records' slots with plain stores, and
// Close hands the records to the process-wide pools, where the next
// goroutine world's Run takes them and reads their slots atomically.
// Under -race this checks that the hand-over orders the plain writes
// before those atomics; every world's clocks must match the goroutine
// referee's.
func TestRecordsCrossEngines(t *testing.T) {
	topo := sim.MustUniform(2, 4)
	body := mixedBody(3)
	want := perRankClocks(t, topo, sim.EngineGoroutine, body)
	for i := range 8 {
		e := sim.EngineEvent
		if i%2 == 1 {
			e = sim.EngineGoroutine
		}
		diffClocks(t, fmt.Sprintf("world %d (%v)", i, e), perRankClocks(t, topo, e, body), want)
	}
}
