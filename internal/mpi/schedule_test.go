package mpi

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// dispatchSequence runs dispatchProgram on a fresh 2x4 event world under
// the given schedule seed (0 is FIFO) and returns the sequence.
func dispatchSequence(t *testing.T, seed uint64) []int {
	t.Helper()
	scheduleSeed.Store(seed)
	defer scheduleSeed.Store(0)
	w, err := NewWorld(sim.HazelHenCray(), sim.MustUniform(2, 4), WithEngine(sim.EngineEvent))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var seq []int
	if err := w.Run(dispatchProgram(&seq, -1)); err != nil {
		t.Fatalf("schedule seed %d: %v", seed, err)
	}
	return seq
}

// TestSeededSchedulesReorderOnly: a schedule seed changes the order the
// driver runs the ranks in, the same seed always to the same order, and
// nothing else: every rank's clock is the goroutine engine's under each
// seed.
func TestSeededSchedulesReorderOnly(t *testing.T) {
	topo := sim.MustUniform(2, 4)
	fifo := dispatchSequence(t, 0)
	want := perRankClocks(t, topo, sim.EngineGoroutine, mixedBody(3))
	for seed := uint64(1); seed <= 8; seed++ {
		seq := dispatchSequence(t, seed)
		if slices.Equal(seq, fifo) {
			t.Errorf("schedule seed %d: dispatch sequence is FIFO's %v", seed, seq)
		}
		if again := dispatchSequence(t, seed); !slices.Equal(again, seq) {
			t.Errorf("schedule seed %d: dispatch sequence %v, then %v", seed, seq, again)
		}
		scheduleSeed.Store(seed)
		got := perRankClocks(t, topo, sim.EngineEvent, mixedBody(3))
		scheduleSeed.Store(0)
		diffClocks(t, fmt.Sprintf("schedule seed %d", seed), got, want)
	}
}
