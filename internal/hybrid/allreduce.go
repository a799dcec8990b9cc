package hybrid

import (
	"fmt"

	"repro/internal/coll"
	"repro/internal/mpi"
)

// reduction is the segment pair and node-reduction body behind the
// reducing collectives: every rank writes its contribution into a
// per-rank slot of a shared input segment; the leader reduces the
// node's contributions locally, the leaders reduce across the bridge,
// and the node-shared result segment holds the single on-node copy of
// the answer.
type reduction struct {
	collective
	count   int
	dt      mpi.Datatype
	in      mpi.Buf // node input segment: nodeSize * count elements
	out     mpi.Buf // node result segment: count elements
	scratch mpi.Buf
}

// Allreducer extends the paper's approach to MPI_Allreduce (named in its
// introduction as one of the important collectives, but not evaluated
// there): leaders allreduce across the bridge, so every node's result
// segment holds the answer.
type Allreducer struct{ reduction }

// Reducer is the hybrid rooted reduce: like Allreducer but the final
// result lands only on the root's node (leaders run a tree reduce on
// the bridge instead of an allreduce).
type Reducer struct{ reduction }

// init fills the reduction embedded in a handle cut from a setup slab.
func (r *reduction) init(c *Ctx, count int, dt mpi.Datatype) (err error) {
	if count < 0 {
		return fmt.Errorf("hybrid: negative element count %d", count)
	}
	bytes := count * dt.Size()
	*r = reduction{collective: collective{c}, count: count, dt: dt}
	if r.in, err = c.segment(bytes * c.node.Size()); err != nil {
		return err
	}
	if r.out, err = c.segment(bytes); err != nil {
		return err
	}
	r.scratch = c.comm.Proc().World().NewBuf(bytes)
	return nil
}

// NewAllreducer prepares a hybrid allreduce of count elements of dt.
func (c *Ctx) NewAllreducer(count int, dt mpi.Datatype) (*Allreducer, error) {
	a, _, _ := mpi.SetupSlab[Allreducer](c.comm, nil)
	if err := a.init(c, count, dt); err != nil {
		return nil, err
	}
	return a, nil
}

// NewReducer prepares a hybrid reduce of count elements of dt.
func (c *Ctx) NewReducer(count int, dt mpi.Datatype) (*Reducer, error) {
	r, _, _ := mpi.SetupSlab[Reducer](c.comm, nil)
	if err := r.init(c, count, dt); err != nil {
		return nil, err
	}
	return r, nil
}

// Mine returns this rank's input slot (write your contribution here
// before the timed call).
func (r *reduction) Mine() mpi.Buf {
	bytes := r.count * r.dt.Size()
	return r.in.Slice(r.ctx.node.Rank()*bytes, bytes)
}

// Result returns the node-shared result segment (valid after Allreduce;
// after Reduce, meaningful on the root's node).
func (r *reduction) Result() mpi.Buf { return r.out }

// Allreduce runs the timed operation: arrive-sync, leader-local node
// reduction (reads every on-node slot once), bridge allreduce, release
// sync.
func (a *Allreducer) Allreduce(op mpi.Op) error { return a.reduce("allreduce", op, 0, false) }

// Reduce runs the timed operation onto root (comm rank).
func (r *Reducer) Reduce(op mpi.Op, root int) error { return r.reduce("reduce", op, root, true) }

func (r *reduction) reduce(name string, op mpi.Op, root int, rooted bool) error {
	c := r.ctx
	return c.epoch(name, toLeader, root, rooted, func(bridge *mpi.Comm, rootNode int) error {
		if !c.IsLeader() {
			return nil
		}
		// Fold the node's contributions into the result segment.
		p, bytes := c.node.Proc(), r.count*r.dt.Size()
		p.CopyLocal(r.out, r.in.Slice(0, bytes), 1)
		for i := 1; i < c.node.Size(); i++ {
			op.Apply(r.out, r.in.Slice(i*bytes, bytes), r.count, r.dt)
			p.Compute(float64(r.count))
			p.TouchAll(bytes, 1)
		}
		if bridge == nil {
			return nil
		}
		var err error
		if rooted {
			err = coll.Reduce(bridge, r.out, r.scratch, r.count, r.dt, op, rootNode)
		} else {
			err = coll.Allreduce(bridge, r.out, r.scratch, r.count, r.dt, op)
		}
		if err == nil && (!rooted || bridge.Rank() == rootNode) {
			p.CopyLocal(r.out, r.scratch, 1)
		}
		return err
	})
}
