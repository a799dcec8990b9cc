package coll

import (
	"repro/internal/mpi"
	"repro/internal/sim"
)

// The nonblocking collective (MPI-3 MPI_Iallreduce), built as a schedule
// object executed by mpi.Sched — the request machinery's asynchronous
// progress engine. The builder compiles the rank's rounds of the
// underlying algorithm; the caller overlaps local work between
// Start/Wait (or polls with Test), and the engine's virtual timeline
// makes the overlap deterministic: completion is max(local clock,
// schedule cursor).
//
// Relative tags inside a schedule must be identical on both sides of
// every transfer and independent of rank-local round counts (folding
// ranks run extra rounds), so they are derived from the algorithm's
// global step index, not from len(rounds).

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
