package coll

import (
	"fmt"

	"repro/internal/mpi"
)

// Collective tag space (distinct from the runtime's internal tags; see
// mpi.Comm.Barrier). One tag per operation family is enough because MPI
// messages are non-overtaking and collectives on a communicator are
// serialized.
const (
	tagAllgather = 1<<25 + iota
	tagAllgatherv
	tagBcast
	tagGather
	tagReduce
	tagAllreduce
	tagAlltoall
)

const (
	tagScan = 1<<25 + 16 + iota
	tagNeighbor
)

// famAllgather is the regular allgather's face on the shared exchanges.
var famAllgather = family{name: "allgather", tag: tagAllgather}

// Allgather gathers per-rank blocks of `per` bytes from every rank into
// every rank's recv buffer (rank order). The algorithm is resolved by
// the selection engine (see registry.go): under the default table
// policy, a logarithmic algorithm (recursive doubling on power-of-two
// communicators, Bruck otherwise) while the total result is small, the
// ring algorithm beyond — the way the profile's library would.
func Allgather(c *mpi.Comm, send, recv mpi.Buf, per int) error {
	if err := checkAllgatherArgs(c, send, recv, per); err != nil {
		return err
	}
	run, err := dispatch[any](c, CollAllgather, envFor(c, per, 0), false)
	if err != nil {
		return err
	}
	if exchange, ok := run.(exchangeFn); ok {
		placeOwn(c, send, recv, per)
		return exchange(c, blocks{buf: recv, per: per}, famAllgather)
	}
	return run.(allgatherFn)(c, send, recv, per)
}

// AllgatherInPlace runs the allgather with every rank's block already
// placed at its slot of recv, selecting among the in-place-capable
// algorithms (Bruck's rotated layout rules it out). The hierarchical
// baselines use this on their bridge communicators, which makes it the
// form the figure workloads actually run; a regular Allgather that
// picks ring or recursive doubling is "place own block, then this".
func AllgatherInPlace(c *mpi.Comm, recv mpi.Buf, per int) error {
	if err := checkInPlaceArgs(c, recv, per); err != nil {
		return err
	}
	exchange, err := dispatch[exchangeFn](c, CollAllgather, envFor(c, per, 0), true)
	if err != nil {
		return err
	}
	return exchange(c, blocks{buf: recv, per: per}, famAllgather)
}

func checkInPlaceArgs(c *mpi.Comm, recv mpi.Buf, per int) error {
	switch {
	case c == nil:
		return fmt.Errorf("coll: allgather on nil communicator")
	case per < 0:
		return fmt.Errorf("coll: negative block size %d", per)
	case recv.Len() < per*c.Size():
		return fmt.Errorf("coll: recv buffer %dB < %d blocks of %dB", recv.Len(), c.Size(), per)
	}
	return nil
}

func checkAllgatherArgs(c *mpi.Comm, send, recv mpi.Buf, per int) error {
	if err := checkInPlaceArgs(c, recv, per); err != nil {
		return err
	}
	if send.Len() < per {
		return fmt.Errorf("coll: send buffer %dB < block %dB", send.Len(), per)
	}
	return nil
}

// placeOwn copies the caller's block into its slot of recv; every
// allgather algorithm starts this way.
func placeOwn(c *mpi.Comm, send, recv mpi.Buf, per int) {
	c.Proc().CopyLocal(recv.Slice(c.Rank()*per, per), send.Slice(0, per), 1)
}

// allgatherRing and allgatherRecDbl are the two exchanges over the
// whole communicator, as the allgather and allgatherv registry entries
// run them (the selector guarantees recursive doubling a power-of-two
// size). The ring is bandwidth-optimal: n-1 steps, each rank
// forwarding the block it received in the previous step to its right
// neighbour, so its latency grows linearly in n and libraries use it
// only for large totals. Recursive doubling takes log2(n) exchange
// steps that double the gathered range each time.
func allgatherRing(c *mpi.Comm, v blocks, f family) error {
	return ringExchange(c, v, c.Rank(), f)
}

func allgatherRecDbl(c *mpi.Comm, v blocks, f family) error {
	return doublingExchange(c, v, c.Rank(), c.Size(), 0, f)
}

// allgatherBruck is Bruck's algorithm: ceil(log2 n) steps on any size,
// at the price of a final local reordering pass (the rotation), which is
// why libraries prefer recursive doubling when n is a power of two.
func allgatherBruck(c *mpi.Comm, send, recv mpi.Buf, per int) error {
	n := c.Size()
	p := c.Proc()
	rank := c.Rank()
	// Work buffer in rotated layout: my block at position 0.
	tmp := p.World().NewBuf(n * per)
	p.CopyLocal(tmp.Slice(0, per), send.Slice(0, per), 1)

	have := 1
	for step := 1; have < n; step <<= 1 {
		cnt := have
		if have+cnt > n {
			cnt = n - have
		}
		dst := (rank - step + n) % n
		src := (rank + step) % n
		_, err := c.Sendrecv(
			tmp.Slice(0, cnt*per), dst, tagAllgather,
			tmp.Slice(have*per, cnt*per), src, tagAllgather,
		)
		if err != nil {
			return fmt.Errorf("coll: allgather bruck step %d: %w", step, err)
		}
		have += cnt
	}
	// Un-rotate into rank order; this extra full-buffer copy is
	// charged, part of why Bruck loses to recursive doubling.
	for i := 0; i < n; i++ {
		p.CopyLocal(recv.Slice(((rank+i)%n)*per, per), tmp.Slice(i*per, per), 1)
	}
	return nil
}

// allgatherNeighbor is the neighbor-exchange allgather (Chen et al.):
// n/2 + 1 steps of pairwise exchanges with alternating neighbours,
// transferring two blocks per step. Even communicator sizes only; it
// trades latency against ring for medium messages and completes the
// classic algorithm family for the ablation sweep.
func allgatherNeighbor(c *mpi.Comm, send, recv mpi.Buf, per int) error {
	n := c.Size()
	if n%2 != 0 {
		return fmt.Errorf("coll: neighbor-exchange needs an even size, got %d", n)
	}
	placeOwn(c, send, recv, per)
	rank := c.Rank()

	// First step: exchange own blocks with the first neighbour.
	var first int
	if rank%2 == 0 {
		first = (rank + 1) % n
	} else {
		first = (rank - 1 + n) % n
	}
	if _, err := c.Sendrecv(
		recv.Slice(rank*per, per), first, tagNeighbor,
		recv.Slice(first*per, per), first, tagNeighbor,
	); err != nil {
		return fmt.Errorf("coll: neighbor step 0: %w", err)
	}

	// Remaining steps: alternate left/right, forwarding the pair of
	// blocks learned two steps ago.
	// Track which contiguous pair (in ring distance) was received
	// last. Even ranks move left then right alternately; odd ranks
	// mirror. We follow the standard formulation: at odd steps
	// exchange with left neighbour of the first partner chain, at
	// even steps with right.
	lastPair := pairStart(rank, 0, n)
	for step := 1; step <= n/2-1; step++ {
		var partner int
		if (rank%2 == 0) == (step%2 == 1) {
			partner = (rank - 1 + n) % n
		} else {
			partner = (rank + 1) % n
		}
		sendBase := lastPair
		recvBase := pairStart(rank, step, n)
		if err := sendrecvPair(c, recv, per, n, sendBase, partner, recvBase); err != nil {
			return fmt.Errorf("coll: neighbor step %d: %w", step, err)
		}
		lastPair = recvBase
	}
	return nil
}

// pairStart returns the first block index of the pair a rank acquires
// at a given neighbor-exchange step.
func pairStart(rank, step, n int) int {
	// The pair acquired at step s sits 2s (even ranks, odd steps
	// moving left) or -(2s) blocks away from the rank's own pair.
	pairBase := rank &^ 1 // my pair: {even, even+1}
	var off int
	if rank%2 == 0 {
		if step%2 == 1 {
			off = -2 * ((step + 1) / 2)
		} else {
			off = 2 * (step / 2)
		}
	} else {
		if step%2 == 1 {
			off = 2 * ((step + 1) / 2)
		} else {
			off = -2 * (step / 2)
		}
	}
	return ((pairBase+off)%n + n) % n
}

// sendrecvPair exchanges two adjacent blocks (mod n wraparound handled
// block-by-block).
func sendrecvPair(c *mpi.Comm, recv mpi.Buf, per, n, sendBase, partner, recvBase int) error {
	// Two blocks, possibly wrapping: send blocks sendBase,
	// sendBase+1; receive recvBase, recvBase+1.
	r1, err := c.Irecv(recv.Slice((recvBase%n)*per, per), partner, tagNeighbor)
	if err != nil {
		return err
	}
	r2, err := c.Irecv(recv.Slice(((recvBase+1)%n)*per, per), partner, tagNeighbor)
	if err != nil {
		return err
	}
	if err := c.Send(recv.Slice((sendBase%n)*per, per), partner, tagNeighbor); err != nil {
		return err
	}
	if err := c.Send(recv.Slice(((sendBase+1)%n)*per, per), partner, tagNeighbor); err != nil {
		return err
	}
	return mpi.Waitall(r1, r2)
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
