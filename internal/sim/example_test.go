package sim_test

import (
	"fmt"

	"repro/internal/sim"
)

// A multi-level machine: two nodes of two sockets of two ranks. Hop
// classifies rank pairs by their innermost common level, which is what
// prices every message and moves collective crossovers per level.
func ExampleUniformHier() {
	topo, err := sim.UniformHier(2,
		sim.LevelDim{Name: "socket", Arity: 2},
		sim.LevelDim{Name: "node", Arity: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println(topo)
	fmt.Println(topo.Hop(0, 1), topo.Hop(0, 2), topo.Hop(0, 4))
	// Output:
	// 2x4 (socket⊂node)
	// socket shm net
}
