package coll

import (
	"runtime"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestHotExchangesAllocationPins pins the allocations of one warm
// World.Run around each exchange the benchmark's fig-micro workload
// calls thousands of times per op (GatherLinear 3,072, BcastBinomial
// 6,400, the in-place allgather and the explicit allgatherv 128 each).
// The limits are the counts measured before the exchanges were
// rewritten over shared step primitives (identical on both worlds and
// both engines): a primitive that escapes to the heap on these paths
// shows up here before it shows up as allocs_per_op in the benchmark.
func TestHotExchangesAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	const per, n = 4096, 8
	counts, strided := make([]int, n), make([]int, n)
	for i := range counts {
		counts[i] = per
		strided[i] = 2 * per * i
	}
	prefix := Displs(counts)
	ops := []struct {
		name  string
		limit float64
		body  func(p *mpi.Proc) error
	}{
		{"AllgatherInPlace", 0, func(p *mpi.Proc) error {
			return AllgatherInPlace(p.CommWorld(), mpi.Sized(n*per), per)
		}},
		// One displacement vector per rank at the parent (8.00); the
		// explicit form now rides the caller's.
		{"AllgathervExplicit/prefix", 8, func(p *mpi.Proc) error {
			return AllgathervExplicit(p.CommWorld(), mpi.Sized(n*per), counts, prefix)
		}},
		{"AllgathervExplicit/strided", 0, func(p *mpi.Proc) error {
			return AllgathervExplicit(p.CommWorld(), mpi.Sized(2*n*per), counts, strided)
		}},
		{"BcastBinomial", 0, func(p *mpi.Proc) error {
			return BcastBinomial(p.CommWorld(), mpi.Sized(per), 0)
		}},
		{"GatherLinear", 0, func(p *mpi.Proc) error {
			return GatherLinear(p.CommWorld(), mpi.Sized(per), mpi.Sized(n*per), per, 0)
		}},
	}
	for _, shape := range [][2]int{{1, 8}, {4, 2}} {
		for _, eng := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
			w, err := mpi.NewWorld(sim.HazelHenCray(), sim.MustUniform(shape[0], shape[1]), mpi.WithEngine(eng))
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				run := func() {
					if err := w.Run(op.body); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 16; i++ {
					run()
				}
				if got := testing.AllocsPerRun(100, run); got > op.limit {
					t.Errorf("%s on %dx%d (%v engine): %.2f allocs per warm Run, pinned at %.0f",
						op.name, shape[0], shape[1], eng, got, op.limit)
				}
			}
			w.Close()
		}
	}
}

// TestHierSetupAllocationPin pins what NewHier allocates on the
// benchmark's fig-micro world (64 nodes x 24 ranks, size-only), where
// 3,072 ranks call it per op: the plan, one slab of composers and one
// arena of tier communicators per call (mpi.SetupSlab), one slab of
// context records and one of their queues — not an object per rank,
// which was 6,150 more. 9.5 objects and 445,710 bytes measured; 321.2
// and 587,509 while every rank's matcher shard kept a growing table of
// the queues of every context it ever joined, and 322.6 and 652,282
// while a handle cached what its context's record knows.
func TestHierSetupAllocationPin(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w, err := mpi.NewWorld(sim.HazelHenCray(), sim.MustUniform(64, 24))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	run := func() {
		err := w.Run(func(p *mpi.Proc) error {
			_, err := NewHier(p.CommWorld())
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if objects > 12 || bytes > 447_500 {
		t.Errorf("NewHier on 64x24: %.1f objects, %.0f bytes per world, pinned at 12 and 447,500", objects, bytes)
	}
}
