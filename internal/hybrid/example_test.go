package hybrid_test

import (
	"fmt"

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
