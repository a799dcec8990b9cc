package coll

import (
	"fmt"

	"repro/internal/mpi"
)

func checkAlltoallArgs(c *mpi.Comm, send, recv mpi.Buf, per int) error {
	switch {
	case c == nil:
		return fmt.Errorf("coll: alltoall on nil communicator")
	case per < 0:
		return fmt.Errorf("coll: alltoall negative block size")
	case send.Len() < per*c.Size() || recv.Len() < per*c.Size():
		return fmt.Errorf("coll: alltoall buffers too small for %d x %dB", c.Size(), per)
	}
	return nil
}

// Alltoall performs the complete exchange: rank i's j-th send block of
// `per` bytes lands in rank j's recv buffer at block i. The algorithm
// is resolved by the selection engine.
func Alltoall(c *mpi.Comm, send, recv mpi.Buf, per int) error {
	if err := checkAlltoallArgs(c, send, recv, per); err != nil {
		return err
	}
	run, err := dispatch[alltoallFn](c, CollAlltoall, envFor(c, per, 0), false)
	if err != nil {
		return err
	}
	return run(c, send, recv, per)
}

// AlltoallPairwise is the pairwise exchange algorithm: n-1 balanced
// steps (XOR pairing on power-of-two sizes, shifted pairing otherwise).
func AlltoallPairwise(c *mpi.Comm, send, recv mpi.Buf, per int) error {
	if err := checkAlltoallArgs(c, send, recv, per); err != nil {
		return err
	}
	n := c.Size()
	rank := c.Rank()
	p := c.Proc()
	p.CopyLocal(recv.Slice(rank*per, per), send.Slice(rank*per, per), 1)
	for step := 1; step < n; step++ {
		var sendTo, recvFrom int
		if isPow2(n) {
			sendTo = rank ^ step
			recvFrom = sendTo
		} else {
			sendTo = (rank + step) % n
			recvFrom = (rank - step + n) % n
		}
		_, err := c.Sendrecv(
			send.Slice(sendTo*per, per), sendTo, tagAlltoall,
			recv.Slice(recvFrom*per, per), recvFrom, tagAlltoall,
		)
		if err != nil {
			return fmt.Errorf("coll: alltoall step %d: %w", step, err)
		}
	}
	return nil
}
