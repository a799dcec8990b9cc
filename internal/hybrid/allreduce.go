package hybrid

import (
	"fmt"

	"repro/internal/coll"
	"repro/internal/mpi"
)

// Allreducer extends the paper's approach to MPI_Allreduce (named in its
// introduction as one of the important collectives, but not evaluated
// there): every rank writes its contribution into a per-rank slot of a
// shared input segment; the leader reduces the node's contributions
// locally, the leaders allreduce across the bridge, and the node-shared
// result segment holds the single on-node copy of the answer.
type Allreducer struct {
	collective
	count   int
	dt      mpi.Datatype
	in      mpi.Buf // node input segment: nodeSize * count elements
	out     mpi.Buf // node result segment: count elements
	scratch mpi.Buf
}

// init fills a handle cut from a setup slab.
func (a *Allreducer) init(c *Ctx, count int, dt mpi.Datatype) (err error) {
	if count < 0 {
		return fmt.Errorf("hybrid: negative element count %d", count)
	}
	bytes := count * dt.Size()
	*a = Allreducer{collective: collective{c}, count: count, dt: dt}
	if a.in, err = c.segment(bytes * c.node().Size()); err != nil {
		return err
	}
	if a.out, err = c.segment(bytes); err != nil {
		return err
	}
	a.scratch = c.comm().Proc().World().NewBuf(bytes)
	return nil
}

// NewAllreducer prepares a hybrid allreduce of count elements of dt.
func (c *Ctx) NewAllreducer(count int, dt mpi.Datatype) (*Allreducer, error) {
	a, _, _ := mpi.SetupSlab[Allreducer](c.comm(), nil)
	if err := a.init(c, count, dt); err != nil {
		return nil, err
	}
	return a, nil
}

// Mine returns this rank's input slot (write your contribution here
// before the timed call).
func (a *Allreducer) Mine() mpi.Buf {
	bytes := a.count * a.dt.Size()
	return a.in.Slice(a.ctx.node().Rank()*bytes, bytes)
}

// Result returns the node-shared result segment (valid after
// Allreduce).
func (a *Allreducer) Result() mpi.Buf { return a.out }

// Allreduce runs the timed operation: arrive-sync, leader-local node
// reduction (reads every on-node slot once), bridge allreduce, release
// sync.
func (a *Allreducer) Allreduce(op mpi.Op) error {
	return a.ctx.epoch("allreduce", toLeader, 0, false, func(bridge *mpi.Comm, _ int) error {
		if !a.ctx.IsLeader() {
			return nil
		}
		a.foldNode(op)
		if bridge == nil {
			return nil
		}
		err := coll.Allreduce(bridge, a.out, a.scratch, a.count, a.dt, op)
		if err == nil {
			a.ctx.node().Proc().CopyLocal(a.out, a.scratch, 1)
		}
		return err
	})
}

// foldNode reduces the node's contributions into the result segment
// (leader only).
func (a *Allreducer) foldNode(op mpi.Op) {
	node := a.ctx.node()
	p, bytes := node.Proc(), a.count*a.dt.Size()
	p.CopyLocal(a.out, a.in.Slice(0, bytes), 1)
	for i := 1; i < node.Size(); i++ {
		op.Apply(a.out, a.in.Slice(i*bytes, bytes), a.count, a.dt)
		p.Compute(float64(a.count))
		p.TouchAll(bytes, 1)
	}
}
