package coll_test

import (
	"fmt"

	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// A halo exchange on a periodic process grid: every rank sends one
// block to each ring neighbor with NeighborAlltoall and prints what
// arrived. The selection engine routes the call like any collective
// (the paired per-dimension exchange on grids by default).
func ExampleNeighborAlltoall() {
	topo := sim.MustUniform(1, 4)
	w, err := mpi.NewWorld(sim.Laptop(), topo, mpi.WithRealData())
	if err != nil {
		panic(err)
	}
	got := make([][2]float64, topo.Size())
	err = w.Run(func(p *mpi.Proc) error {
		ring, err := p.CommWorld().CartCreate([]int{p.Size()}, []bool{true}, false)
		if err != nil {
			return err
		}
		// Send block 0 to the left neighbor, block 1 to the right.
		send := mpi.FromFloat64s([]float64{float64(p.Rank()), float64(p.Rank())})
		recv := mpi.Bytes(make([]byte, 16))
		if err := coll.NeighborAlltoall(ring, send, recv, 8); err != nil {
			return err
		}
		got[p.Rank()] = [2]float64{recv.Float64At(0), recv.Float64At(1)}
		return nil
	})
	if err != nil {
		panic(err)
	}
	for r, g := range got {
		fmt.Printf("rank %d got left=%g right=%g\n", r, g[0], g[1])
	}
	// Output:
	// rank 0 got left=3 right=1
	// rank 1 got left=0 right=2
	// rank 2 got left=1 right=3
	// rank 3 got left=2 right=0
}

// A tuning attached with WithTuning steers every collective on the
// handle. The same 64-byte halo exchange on a periodic 4x4 grid (4
// nodes x 4 ranks) runs under the table policy (the zero Tuning) and
// under the cost policy, which prices both neighborhood algorithms and
// picks the cheaper.
func ExampleWithTuning() {
	const halo = 64
	for _, tun := range []coll.Tuning{{}, {Policy: coll.PolicyCost}} {
		w, err := mpi.NewWorld(sim.HazelHenCray(), sim.MustUniform(4, 4))
		if err != nil {
			panic(err)
		}
		err = w.Run(func(p *mpi.Proc) error {
			grid, err := p.CommWorld().CartCreate([]int{4, 4}, []bool{true, true}, false)
			if err != nil {
				return err
			}
			// One block to each of the four grid neighbors.
			return coll.NeighborAlltoall(coll.WithTuning(grid, tun), mpi.Sized(4*halo), mpi.Sized(4*halo), halo)
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %.2f us\n", tun.Policy, w.MaxClock().Us())
		w.Close()
	}
	// Output:
	// table: 6.43 us
	// cost: 2.21 us
}
