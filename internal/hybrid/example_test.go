package hybrid_test

import (
	"fmt"

	"repro/internal/coll"
	"repro/internal/hybrid"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// The paper's Hy_Allgather: each node holds one shared copy of the
// result, every rank writes its partition in place, and only the
// leaders exchange node blocks over the bridge. Rank 3, the first rank
// of node 1 and so its leader, reads rank 0's block straight out of its
// node's shared window.
func ExampleCtx_NewAllgatherer() {
	topo := sim.MustUniform(2, 3) // two nodes, three ranks each
	w, err := mpi.NewWorld(sim.Laptop(), topo, mpi.WithRealData())
	if err != nil {
		panic(err)
	}
	var line string
	err = w.Run(func(p *mpi.Proc) error {
		ctx, err := hybrid.New(p.CommWorld())
		if err != nil {
			return err
		}
		ag, err := ctx.NewAllgatherer(8)
		if err != nil {
			return err
		}
		ag.Mine().PutFloat64(0, 100+float64(p.Rank()))
		if err := ag.Allgather(); err != nil {
			return err
		}
		if p.Rank() == 3 {
			line = fmt.Sprintf("rank %d (node %d, leader=%v) read rank 0's block: %g",
				p.Rank(), p.Node(), ctx.IsLeader(), ag.Block(0).Float64At(0))
		}
		return ag.ReadFence()
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(line)
	// Output:
	// rank 3 (node 1, leader=true) read rank 0's block: 100
}

// The hybrid complete exchange (MPI_Alltoall): every rank writes its
// send row, one block per destination, into its node's shared send
// matrix; on-node blocks move by load/store and only the node leaders
// exchange packed submatrices over the bridge. Rank s's block for rank
// d carries 100*s + d; rank 4 reads the one rank 1, on the other node,
// addressed to it.
//
// Funnelling the whole exchange through one leader per node wins on
// tiny blocks, where the pure pairwise exchange pays one message per
// rank pair, and loses badly on large ones, where one leader moves
// what every rank would move in parallel (EXPERIMENTS.md). 32 KiB is
// an FT-shaped transpose's block: 2,048 complex values per rank pair.
func ExampleCtx_NewAlltoaller() {
	topo := sim.MustUniform(2, 3)
	w, err := mpi.NewWorld(sim.Laptop(), topo, mpi.WithRealData())
	if err != nil {
		panic(err)
	}
	var line string
	err = w.Run(func(p *mpi.Proc) error {
		ctx, err := hybrid.New(p.CommWorld())
		if err != nil {
			return err
		}
		a, err := ctx.NewAlltoaller(8)
		if err != nil {
			return err
		}
		for dst := 0; dst < p.Size(); dst++ {
			a.MineSend().PutFloat64(dst, float64(100*p.Rank()+dst))
		}
		if err := a.Alltoall(); err != nil {
			return err
		}
		if p.Rank() == 4 {
			line = fmt.Sprintf("rank 4 (node %d) read rank 1's block: %g",
				p.Node(), a.MineRecv().Float64At(1))
		}
		return a.ReadFence()
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(line)

	for _, per := range []int{8, 32 << 10} {
		pure, hy := alltoallTime(per, false), alltoallTime(per, true)
		fmt.Printf("4x24, %5d B blocks: pure %8.2f us, hybrid %8.2f us\n", per, pure.Us(), hy.Us())
	}
	// Output:
	// rank 4 (node 1) read rank 1's block: 104
	// 4x24,     8 B blocks: pure   167.47 us, hybrid    13.92 us
	// 4x24, 32768 B blocks: pure   548.03 us, hybrid 21549.03 us
}

// alltoallTime is the makespan of one alltoall of per-byte blocks on a
// fresh size-only 4x24 HazelHen world: coll.Alltoall, or the hybrid
// Alltoall with its ReadFence.
func alltoallTime(per int, hy bool) sim.Time {
	w, err := mpi.NewWorld(sim.HazelHenCray(), sim.MustUniform(4, 24))
	if err != nil {
		panic(err)
	}
	defer w.Close()
	err = w.Run(func(p *mpi.Proc) error {
		if !hy {
			send, recv := mpi.Sized(per*p.Size()), mpi.Sized(per*p.Size())
			return coll.Alltoall(p.CommWorld(), send, recv, per)
		}
		ctx, err := hybrid.New(p.CommWorld())
		if err != nil {
			return err
		}
		a, err := ctx.NewAlltoaller(per)
		if err != nil {
			return err
		}
		if err := a.Alltoall(); err != nil {
			return err
		}
		return a.ReadFence()
	})
	if err != nil {
		panic(err)
	}
	return w.MaxClock()
}
