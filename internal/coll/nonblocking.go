package coll

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// Nonblocking collectives (MPI-3 I-collectives), built as schedule
// objects executed by mpi.Sched — the request machinery's asynchronous
// progress engine. Each builder compiles the rank's rounds of the
// underlying algorithm; the caller overlaps local work between
// Start/Wait (or polls with Test), and the engine's virtual timeline
// makes the overlap deterministic: completion is max(local clock,
// schedule cursor).
//
// Relative tags inside a schedule must be identical on both sides of
// every transfer and independent of rank-local round counts (folding
// ranks run extra rounds), so they are derived from the algorithm's
// global step index, not from len(rounds).

// Iallgather starts a nonblocking allgather: recursive doubling on
// power-of-two communicators, ring otherwise (Bruck's rotated layout
// has no in-place round structure). recv must stay untouched until
// Wait.
func Iallgather(c *mpi.Comm, send, recv mpi.Buf, per int) (*mpi.Sched, error) {
	if err := checkAllgatherArgs(c, send, recv, per); err != nil {
		return nil, err
	}
	p := c.Proc()
	model := p.Model()
	n := c.Size()
	rank := c.Rank()

	rounds := []mpi.Round{{After: func(now sim.Time) sim.Time {
		mpi.CopyData(recv.Slice(rank*per, per), send.Slice(0, per))
		return now + model.CopyCost(per, 1)
	}}}
	v := blocks{buf: recv, per: per}
	switch {
	case n == 1:
	case isPow2(n):
		step := 0
		for mask := 1; mask < n; mask <<= 1 {
			partner, have, get := doublingStep(rank, mask)
			rounds = append(rounds, mpi.Round{Ops: []mpi.SchedOp{
				mpi.SchedRecv(v.span(get, mask), partner, step),
				mpi.SchedSend(v.span(have, mask), partner, step),
			}})
			step++
		}
	default:
		right := (rank + 1) % n
		left := (rank - 1 + n) % n
		for i := 0; i < n-1; i++ {
			s, r := ringStep(rank, n, i)
			rounds = append(rounds, mpi.Round{Ops: []mpi.SchedOp{
				mpi.SchedRecv(v.at(r), left, i),
				mpi.SchedSend(v.at(s), right, i),
			}})
		}
	}
	return c.NewSched(rounds), nil
}

// Iallreduce starts a nonblocking allreduce (recursive doubling with
// the MPICH fold onto the power-of-two core for other sizes). send and
// recv must stay untouched until Wait.
func Iallreduce(c *mpi.Comm, send, recv mpi.Buf, count int, dt mpi.Datatype, op mpi.Op) (*mpi.Sched, error) {
	if err := checkReduceArgs(c, send, recv, count, dt); err != nil {
		return nil, err
	}
	p := c.Proc()
	model := p.Model()
	bytes := count * dt.Size()
	n := c.Size()
	rank := c.Rank()

	rounds := []mpi.Round{{After: func(now sim.Time) sim.Time {
		mpi.CopyData(recv.Slice(0, bytes), send.Slice(0, bytes))
		return now + model.CopyCost(bytes, 1)
	}}}
	if n == 1 {
		return c.NewSched(rounds), nil
	}
	tmp := p.World().NewBuf(bytes)
	apply := func(now sim.Time) sim.Time {
		op.Apply(recv, tmp, count, dt)
		return now + model.ComputeCost(float64(count))
	}

	// Relative tags: 0 folds, 1+step the core exchanges, stride-1 the
	// unfold.
	const unfoldTag = 63
	acc := recv.Slice(0, bytes)
	coreRank, pof2, rem := coreRole(rank, n)
	switch {
	case rank >= 2*rem:
	case coreRank < 0:
		rounds = append(rounds, mpi.Round{Ops: []mpi.SchedOp{
			mpi.SchedSend(acc, rank+1, 0),
		}})
	default:
		rounds = append(rounds, mpi.Round{
			Ops:   []mpi.SchedOp{mpi.SchedRecv(tmp, rank-1, 0)},
			After: apply,
		})
	}
	if coreRank >= 0 {
		step := 0
		for mask := 1; mask < pof2; mask <<= 1 {
			partner := coreToComm(coreRank^mask, rem)
			rounds = append(rounds, mpi.Round{
				Ops: []mpi.SchedOp{
					mpi.SchedRecv(tmp, partner, 1+step),
					mpi.SchedSend(acc, partner, 1+step),
				},
				After: apply,
			})
			step++
		}
	}
	switch {
	case rank >= 2*rem:
	case coreRank < 0:
		rounds = append(rounds, mpi.Round{Ops: []mpi.SchedOp{
			mpi.SchedRecv(acc, rank+1, unfoldTag),
		}})
	default:
		rounds = append(rounds, mpi.Round{Ops: []mpi.SchedOp{
			mpi.SchedSend(acc, rank-1, unfoldTag),
		}})
	}
	return c.NewSched(rounds), nil
}

// Ibcast starts a nonblocking binomial-tree broadcast. buf must stay
// untouched until Wait (on the root it is read, elsewhere written).
func Ibcast(c *mpi.Comm, buf mpi.Buf, root int) (*mpi.Sched, error) {
	if err := checkBcastArgs(c, buf, root); err != nil {
		return nil, err
	}
	n := c.Size()
	var rounds []mpi.Round
	if n == 1 {
		return c.NewSched(rounds), nil
	}
	rel := (c.Rank() - root + n) % n

	mask := binomialParent(rel, n)
	if rel != 0 {
		rounds = append(rounds, mpi.Round{Ops: []mpi.SchedOp{
			mpi.SchedRecv(buf, (rel-mask+root)%n, 0),
		}})
	}
	// Once the payload is here, the engine fires all child sends
	// back-to-back in one round.
	var sends []mpi.SchedOp
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < n {
			sends = append(sends, mpi.SchedSend(buf, (rel+mask+root)%n, 0))
		}
	}
	if len(sends) > 0 {
		rounds = append(rounds, mpi.Round{Ops: sends})
	}
	return c.NewSched(rounds), nil
}

// Ibarrier starts a nonblocking dissemination barrier: ceil(log2 n)
// rounds of zero-byte exchanges. Unlike the blocking Barrier it never
// takes the single-node flag fast path — the schedule runs on the
// message engine — so it costs a little more on one node, like real
// MPI_Ibarrier implementations.
func Ibarrier(c *mpi.Comm) (*mpi.Sched, error) {
	if c == nil {
		return nil, fmt.Errorf("coll: ibarrier on nil communicator")
	}
	n := c.Size()
	rank := c.Rank()
	empty := mpi.Sized(0)
	var rounds []mpi.Round
	step := 0
	for k := 1; k < n; k <<= 1 {
		dst := (rank + k) % n
		src := (rank - k + n) % n
		rounds = append(rounds, mpi.Round{Ops: []mpi.SchedOp{
			mpi.SchedRecv(empty, src, step),
			mpi.SchedSend(empty, dst, step),
		}})
		step++
	}
	return c.NewSched(rounds), nil
}
