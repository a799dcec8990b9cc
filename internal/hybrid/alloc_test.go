package hybrid

import (
	"runtime"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// perRun returns the heap objects and bytes one call of run allocates,
// averaged over n calls after a warm-up (so pools and the composer
// geometry cache are filled), with the scheduler pinned to one P the
// way testing.AllocsPerRun pins it.
func perRun(n int, run func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 3; i++ {
		run()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestSetupAllocationPins pins what the constructors allocate on the
// benchmark's fig-micro world (64 nodes x 24 ranks, size-only): 3,072
// ranks run them per op and allocs_per_op may move 4%, so one extra
// object or 64 extra bytes per rank here is a rejected PR. Handles come
// from one slab per constructor call (mpi.SetupSlab), so what is left
// is per call and per node — plans, slabs, setup slots, one queue slab
// for 65 fresh contexts, a window plan per node — not per rank: 13.5 /
// 467.0 / 464.0 objects and 511,398 / 787,976 / 762,312 bytes measured
// (324.8 / 618.6 / 468.3 and 653,171 / 969,224 / 810,440 while every
// rank's matcher shard kept a growing table of the queues of every
// context it ever joined, whose growth these Runs paid for depending on
// when the tables doubled; 6,465.5 / 9,771.9 / 9,615.7 objects when
// every rank made its own handles), rounded up past a run-to-run wobble
// of an object or two per world.
func TestSetupAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	w, err := mpi.NewWorld(sim.HazelHenCray(), sim.MustUniform(64, 24))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, c := range []struct {
		name           string
		objects, bytes float64
		build          func(c *Ctx) error
	}{
		{"New", 16, 513_500, func(c *Ctx) error { return nil }},
		{"New+NewAllgatherer", 470, 790_000, func(c *Ctx) error { _, err := c.NewAllgatherer(4096); return err }},
		{"New+NewBcaster", 467, 764_500, func(c *Ctx) error { _, err := c.NewBcaster(4096); return err }},
	} {
		objects, bytes := perRun(10, func() {
			err := w.Run(func(p *mpi.Proc) error {
				ctx, err := New(p.CommWorld())
				if err != nil {
					return err
				}
				return c.build(ctx)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		if objects > c.objects || bytes > c.bytes {
			t.Errorf("%s on 64x24: %.1f objects, %.0f bytes per world, pinned at %.0f and %.0f",
				c.name, objects, bytes, c.objects, c.bytes)
		}
	}
}

// TestWarmEpochAllocationPins pins what one warm timed call allocates:
// the difference between a Run that builds the collective and calls it
// 11 times and one that calls it once. The epoch function takes each
// collective's bridge phase as a func value; if that value escaped,
// every call on every rank would allocate it and each number below
// would rise by the world's 8 ranks. The limits are the most measured
// on either engine before the rewrite (what remains is the mpi and coll
// layers beneath: pool refills, the bridge exchange's vectors) plus a
// quarter object for the pools' wobble.
func TestWarmEpochAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	ops := []struct {
		name  string
		limit [2]float64 // objects per call over the world's 8 ranks: on 1x8, on 4x2
		build func(c *Ctx) (func() error, error)
	}{
		{"Allgather", [2]float64{1.2, 9.15}, func(c *Ctx) (func() error, error) {
			a, err := c.NewAllgatherer(4096)
			if err != nil {
				return nil, err
			}
			return a.Allgather, nil
		}},
		{"Bcast(0)", [2]float64{1.3, 5.45}, func(c *Ctx) (func() error, error) {
			b, err := c.NewBcaster(4096)
			if err != nil {
				return nil, err
			}
			return func() error { return b.Bcast(0) }, nil
		}},
		{"Allreduce", [2]float64{2.25, 16.3}, func(c *Ctx) (func() error, error) {
			a, err := c.NewAllreducer(512, mpi.Float64)
			if err != nil {
				return nil, err
			}
			return func() error { return a.Allreduce(mpi.OpSum) }, nil
		}},
	}
	for si, shape := range [][2]int{{1, 8}, {4, 2}} {
		for _, eng := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
			w, err := mpi.NewWorld(sim.HazelHenCray(), sim.MustUniform(shape[0], shape[1]), mpi.WithEngine(eng))
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				calls := func(n int) func() {
					return func() {
						err := w.Run(func(p *mpi.Proc) error {
							ctx, err := New(p.CommWorld())
							if err != nil {
								return err
							}
							call, err := op.build(ctx)
							for i := 0; i < n && err == nil; i++ {
								err = call()
							}
							return err
						})
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				one, _ := perRun(50, calls(1))
				eleven, _ := perRun(50, calls(11))
				got := (eleven - one) / 10
				if got > op.limit[si] {
					t.Errorf("%s on %dx%d (%v engine): %.2f objects per warm call, pinned at %.2f",
						op.name, shape[0], shape[1], eng, got, op.limit[si])
				}
			}
			w.Close()
		}
	}
}
