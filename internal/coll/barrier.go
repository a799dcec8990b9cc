package coll

import (
	"fmt"

	"repro/internal/mpi"
)

// Barrier synchronizes the communicator. The algorithm is resolved by
// the selection engine: the runtime's native dissemination barrier
// (with its shared-memory fast path) by default, the central-counter
// ablation when forced or when the cost policy prefers it.
func Barrier(c *mpi.Comm) error {
	if c == nil {
		return fmt.Errorf("coll: barrier on nil communicator")
	}
	run, err := dispatch[barrierFn](c, CollBarrier, envFor(c, 0, 0), false)
	if err != nil {
		return err
	}
	return run(c)
}

// barrierCentral is the naive central-counter barrier: gather
// zero-byte tokens at rank 0, then broadcast a release. It exists as an
// ablation against the dissemination barrier (2(n-1) serialized hops vs
// log2(n) balanced rounds).
func barrierCentral(c *mpi.Comm) error {
	n := c.Size()
	if n <= 1 {
		return nil
	}
	empty := mpi.Sized(0)
	if err := gatherAtRoot(c, empty, blocks{buf: empty}, 0, family{name: "central barrier", tag: tagGather}); err != nil {
		return err
	}
	if c.Rank() != 0 {
		_, err := c.Recv(empty, 0, tagBcast)
		return err
	}
	for r := 1; r < n; r++ {
		if err := c.Send(empty, r, tagBcast); err != nil {
			return err
		}
	}
	return nil
}
