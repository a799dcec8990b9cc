package coll

import (
	"fmt"

	"repro/internal/mpi"
)

// Allreduce reduces count elements of type dt with op across all ranks,
// leaving the result on every rank in recv. send and recv hold count
// elements each. The algorithm is resolved by the selection engine;
// the default table policy follows MPICH: recursive doubling for short
// messages, Rabenseifner's reduce-scatter + allgather beyond.
func Allreduce(c *mpi.Comm, send, recv mpi.Buf, count int, dt mpi.Datatype, op mpi.Op) error {
	if err := checkReduceArgs(c, send, recv, count, dt); err != nil {
		return err
	}
	run, err := dispatch[allreduceFn](c, CollAllreduce, envFor(c, count*dt.Size(), count), false)
	if err != nil {
		return err
	}
	return run(c, send, recv, count, dt, op)
}

func checkReduceArgs(c *mpi.Comm, send, recv mpi.Buf, count int, dt mpi.Datatype) error {
	switch {
	case c == nil:
		return fmt.Errorf("coll: reduce on nil communicator")
	case count < 0:
		return fmt.Errorf("coll: negative element count %d", count)
	case send.Len() < count*dt.Size():
		return fmt.Errorf("coll: reduce send buffer %dB < %d x %s", send.Len(), count, dt)
	case recv.Len() < count*dt.Size():
		return fmt.Errorf("coll: reduce recv buffer %dB < %d x %s", recv.Len(), count, dt)
	}
	return nil
}

// foldIn and foldOut bracket an allreduce on a non-power-of-two
// communicator, MPICH style (see coreRole): going in, every idle even
// rank hands acc to its odd neighbour, which reduces it into its own;
// coming out, the odds return the final result.
func foldIn(c *mpi.Comm, coreRank, rem int, acc, tmp mpi.Buf, count int, dt mpi.Datatype, op mpi.Op) error {
	rank := c.Rank()
	switch {
	case rank >= 2*rem:
		return nil
	case coreRank < 0:
		return c.Send(acc, rank+1, tagAllreduce)
	}
	if _, err := c.Recv(tmp, rank-1, tagAllreduce); err != nil {
		return err
	}
	op.Apply(acc, tmp, count, dt)
	c.Proc().Compute(float64(count))
	return nil
}

func foldOut(c *mpi.Comm, coreRank, rem int, acc mpi.Buf) error {
	rank := c.Rank()
	switch {
	case rank >= 2*rem:
		return nil
	case coreRank < 0:
		_, err := c.Recv(acc, rank+1, tagAllreduce)
		return err
	}
	return c.Send(acc, rank-1, tagAllreduce)
}

// AllreduceRecDbl is recursive doubling: log2(n) full-size exchanges,
// each followed by a local reduction. Latency-optimal; bandwidth cost
// log2(n) times the payload.
func AllreduceRecDbl(c *mpi.Comm, send, recv mpi.Buf, count int, dt mpi.Datatype, op mpi.Op) error {
	if err := checkReduceArgs(c, send, recv, count, dt); err != nil {
		return err
	}
	p := c.Proc()
	bytes := count * dt.Size()
	n := c.Size()
	acc := recv.Slice(0, bytes)
	p.CopyLocal(acc, send.Slice(0, bytes), 1)
	if n == 1 {
		return nil
	}
	tmp := p.World().NewBuf(bytes)

	coreRank, pof2, rem := coreRole(c.Rank(), n)
	if err := foldIn(c, coreRank, rem, acc, tmp, count, dt, op); err != nil {
		return err
	}
	if coreRank >= 0 {
		for mask := 1; mask < pof2; mask <<= 1 {
			partner := coreToComm(coreRank^mask, rem)
			if _, err := c.Sendrecv(acc, partner, tagAllreduce, tmp, partner, tagAllreduce); err != nil {
				return fmt.Errorf("coll: allreduce recdbl mask %d: %w", mask, err)
			}
			op.Apply(acc, tmp, count, dt)
			p.Compute(float64(count))
		}
	}
	return foldOut(c, coreRank, rem, acc)
}

// AllreduceRabenseifner is reduce-scatter (recursive halving) followed
// by allgather (recursive doubling): bandwidth-optimal for large
// payloads.
func AllreduceRabenseifner(c *mpi.Comm, send, recv mpi.Buf, count int, dt mpi.Datatype, op mpi.Op) error {
	if err := checkReduceArgs(c, send, recv, count, dt); err != nil {
		return err
	}
	p := c.Proc()
	es := dt.Size()
	bytes := count * es
	n := c.Size()
	acc := recv.Slice(0, bytes)
	p.CopyLocal(acc, send.Slice(0, bytes), 1)
	if n == 1 {
		return nil
	}
	coreRank, pof2, rem := coreRole(c.Rank(), n)
	if count < pof2 {
		// Too few elements to scatter; fall back.
		return AllreduceRecDbl(c, send, recv, count, dt, op)
	}
	tmp := p.World().NewBuf(bytes)
	if err := foldIn(c, coreRank, rem, acc, tmp, count, dt, op); err != nil {
		return err
	}

	if coreRank >= 0 {
		// One piece per core rank: near-equal contiguous element
		// ranges, addressed the same way in the accumulator and in the
		// scratch the partner's half lands in.
		counts := make([]int, pof2)
		for i := range counts {
			counts[i] = count / pof2 * es
			if i < count%pof2 {
				counts[i] += es
			}
		}
		mine := blocks{buf: acc, counts: counts, displs: Displs(counts)}
		theirs := mine
		theirs.buf = tmp

		// Recursive halving reduce-scatter: after the step with the
		// given mask, I hold the reduced range of my mask-sized group
		// of pieces. It is the doubling step read backwards: the group
		// I would hold is the half I keep, the partner's the half I
		// give away.
		for mask := pof2 / 2; mask > 0; mask >>= 1 {
			partnerPos, keep, give := doublingStep(coreRank, mask)
			partner := coreToComm(partnerPos, rem)
			if _, err := c.Sendrecv(
				mine.span(give, mask), partner, tagAllreduce,
				theirs.span(keep, mask), partner, tagAllreduce,
			); err != nil {
				return fmt.Errorf("coll: rabenseifner halving: %w", err)
			}
			kept := mine.span(keep, mask)
			op.Apply(kept, theirs.span(keep, mask), kept.Len()/es, dt)
			p.Compute(float64(kept.Len() / es))
		}

		// Allgather the reduced pieces back with recursive doubling
		// over the same ranges.
		if err := doublingExchange(c, mine, coreRank, pof2, rem,
			family{name: "rabenseifner allgather", tag: tagAllreduce}); err != nil {
			return err
		}
	}
	return foldOut(c, coreRank, rem, acc)
}

// Reduce folds count elements onto root (commutative ops only, like
// every op in internal/mpi). The algorithm is resolved by the
// selection engine.
func Reduce(c *mpi.Comm, send, recv mpi.Buf, count int, dt mpi.Datatype, op mpi.Op, root int) error {
	if err := checkRootArgs(c, root); err != nil {
		return err
	}
	if err := checkReduceArgs(c, send, send, count, dt); err != nil {
		return err
	}
	run, err := dispatch[reduceFn](c, CollReduce, envFor(c, count*dt.Size(), count), false)
	if err != nil {
		return err
	}
	return run(c, send, recv, count, dt, op, root)
}

// ReduceBinomial accumulates partial results up a binomial tree.
func ReduceBinomial(c *mpi.Comm, send, recv mpi.Buf, count int, dt mpi.Datatype, op mpi.Op, root int) error {
	if err := checkRootArgs(c, root); err != nil {
		return err
	}
	if err := checkReduceArgs(c, send, send, count, dt); err != nil {
		return err
	}
	p := c.Proc()
	bytes := count * dt.Size()
	n := c.Size()
	rel := (c.Rank() - root + n) % n

	acc := p.World().NewBuf(bytes)
	p.CopyLocal(acc, send.Slice(0, bytes), 1)
	tmp := p.World().NewBuf(bytes)

	up := binomialParent(rel, n)
	for mask := 1; mask < up; mask <<= 1 {
		if rel+mask < n {
			child := (rel + mask + root) % n
			if _, err := c.Recv(tmp, child, tagReduce); err != nil {
				return fmt.Errorf("coll: reduce recv: %w", err)
			}
			op.Apply(acc, tmp, count, dt)
			p.Compute(float64(count))
		}
	}
	if rel != 0 {
		parent := (rel - up + root) % n
		if err := c.Send(acc, parent, tagReduce); err != nil {
			return fmt.Errorf("coll: reduce send: %w", err)
		}
		return nil
	}
	// Root deposits the result.
	if recv.Len() < bytes {
		return fmt.Errorf("coll: reduce recv buffer %dB < %dB", recv.Len(), bytes)
	}
	p.CopyLocal(recv.Slice(0, bytes), acc, 1)
	return nil
}
