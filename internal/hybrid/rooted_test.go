package hybrid

import (
	"fmt"
	"testing"

	"repro/internal/coll"
	"repro/internal/mpi"
)

func TestHyGather(t *testing.T) {
	for _, shape := range [][]int{{4}, {3, 3}, {4, 2, 3}} {
		for _, root := range []int{0, 1} {
			t.Run(fmt.Sprintf("%v/root%d", shape, root), func(t *testing.T) {
				n := 0
				for _, s := range shape {
					n += s
				}
				runWorld(t, shape, func(p *mpi.Proc) error {
					ctx, err := New(p.CommWorld())
					if err != nil {
						return err
					}
					g, err := ctx.NewGatherer(8)
					if err != nil {
						return err
					}
					g.Mine().PutFloat64(0, float64(500+p.Rank()))
					if err := g.Gather(root); err != nil {
						return err
					}
					// Every rank on the root's node can read the result.
					rootNode := ctx.comp.GroupOfSlot(0, ctx.SlotOf(root))
					if ctx.MyNodeIdx() == rootNode {
						res := g.Result()
						for r := 0; r < n; r++ {
							slot := ctx.SlotOf(r)
							if got := res.Slice(slot*8, 8).Float64At(0); got != float64(500+r) {
								t.Errorf("rank %d sees slot of %d = %v", p.Rank(), r, got)
								return nil
							}
						}
					}
					return nil
				})
			})
		}
	}
}

func TestHyScatter(t *testing.T) {
	for _, shape := range [][]int{{4}, {3, 3}, {2, 4}} {
		for _, root := range []int{0, 1} {
			t.Run(fmt.Sprintf("%v/root%d", shape, root), func(t *testing.T) {
				n := 0
				for _, s := range shape {
					n += s
				}
				runWorld(t, shape, func(p *mpi.Proc) error {
					ctx, err := New(p.CommWorld())
					if err != nil {
						return err
					}
					s, err := ctx.NewScatterer(8)
					if err != nil {
						return err
					}
					if p.Rank() == root {
						in := s.Input()
						for r := 0; r < n; r++ {
							in.Slice(ctx.SlotOf(r)*8, 8).PutFloat64(0, float64(700+r))
						}
					}
					if err := s.Scatter(root); err != nil {
						return err
					}
					// Only ranks on the root's node see real data in
					// shared memory before the bridge... every rank
					// must see its own block after Scatter.
					if got := s.Mine().Float64At(0); got != float64(700+p.Rank()) {
						t.Errorf("rank %d block = %v", p.Rank(), got)
					}
					return nil
				})
			})
		}
	}
}

func TestHyReduce(t *testing.T) {
	for _, shape := range [][]int{{4}, {3, 3}, {2, 2, 2}} {
		for _, root := range []int{0, 2} {
			t.Run(fmt.Sprintf("%v/root%d", shape, root), func(t *testing.T) {
				n := 0
				for _, s := range shape {
					n += s
				}
				const elems = 5
				runWorld(t, shape, func(p *mpi.Proc) error {
					ctx, err := New(p.CommWorld())
					if err != nil {
						return err
					}
					r, err := ctx.NewReducer(elems, mpi.Float64)
					if err != nil {
						return err
					}
					mine := r.Mine()
					for i := 0; i < elems; i++ {
						mine.PutFloat64(i, float64(p.Rank()+i))
					}
					if err := r.Reduce(mpi.OpSum, root); err != nil {
						return err
					}
					rootNode := ctx.comp.GroupOfSlot(0, ctx.SlotOf(root))
					if ctx.MyNodeIdx() == rootNode {
						for i := 0; i < elems; i++ {
							want := float64(n*i + n*(n-1)/2)
							if got := r.Result().Float64At(i); got != want {
								t.Errorf("rank %d elem %d = %v, want %v", p.Rank(), i, got, want)
								return nil
							}
						}
					}
					return nil
				})
			})
		}
	}
}

func TestRootedValidation(t *testing.T) {
	runWorld(t, []int{2}, func(p *mpi.Proc) error {
		ctx, err := New(p.CommWorld())
		if err != nil {
			return err
		}
		if _, err := ctx.NewGatherer(-1); err == nil {
			t.Error("negative gather size accepted")
		}
		if _, err := ctx.NewScatterer(-1); err == nil {
			t.Error("negative scatter size accepted")
		}
		if _, err := ctx.NewReducer(-1, mpi.Float64); err == nil {
			t.Error("negative reduce count accepted")
		}
		g, err := ctx.NewGatherer(8)
		if err != nil {
			return err
		}
		if err := g.Gather(99); err == nil {
			t.Error("bad gather root accepted")
		}
		s, err := ctx.NewScatterer(8)
		if err != nil {
			return err
		}
		if err := s.Scatter(-1); err == nil {
			t.Error("bad scatter root accepted")
		}
		r, err := ctx.NewReducer(1, mpi.Float64)
		if err != nil {
			return err
		}
		if err := r.Reduce(mpi.OpSum, 5); err == nil {
			t.Error("bad reduce root accepted")
		}
		return nil
	})
}

// The rooted hybrid collectives — gather, scatter, reduce — are not
// part of the package: the paper evaluates allgather and broadcast, the
// workloads add allreduce and alltoall, and nothing roots a gather. They
// live here, written over the same epoch protocol (Ctx.epoch, the node
// segment, the toLeader and fromRoot visibilities), for the tests above,
// which is how those paths are exercised from a root other than the
// broadcast's.

const tagHyRooted = tagHyAlltoall + 1 // gather and scatter node blocks

// staging is the node segment both collectives run over: one `per`-byte
// slot for every comm rank, in slot order.
type staging struct {
	collective
	per int
	buf mpi.Buf
}

// Gatherer is the hybrid gather: every rank writes its block into the
// node's shared staging; leaders forward aggregated node blocks to the
// root's leader; ranks on the root's node read results in place.
type Gatherer struct{ staging }

// Scatterer is the hybrid scatter: the root writes all blocks into its
// node's shared staging; leaders receive their node's slice; children
// read their slot in place.
type Scatterer struct{ staging }

// init fills the staging embedded in a handle cut from a setup slab.
func (s *staging) init(c *Ctx, per int) (err error) {
	if per < 0 {
		return fmt.Errorf("hybrid: negative block size %d", per)
	}
	*s = staging{collective: collective{c}, per: per}
	s.buf, err = c.segment(per * c.comm().Size())
	return err
}

// NewGatherer prepares a hybrid gather of per bytes per rank (one-off).
func (c *Ctx) NewGatherer(per int) (*Gatherer, error) {
	g, _, _ := mpi.SetupSlab[Gatherer](c.comm(), nil)
	if err := g.init(c, per); err != nil {
		return nil, err
	}
	return g, nil
}

// NewScatterer prepares a hybrid scatter of per bytes per rank.
func (c *Ctx) NewScatterer(per int) (*Scatterer, error) {
	s, _, _ := mpi.SetupSlab[Scatterer](c.comm(), nil)
	if err := s.init(c, per); err != nil {
		return nil, err
	}
	return s, nil
}

// Mine returns this rank's slot: its input block before Gather, its
// received block after Scatter.
func (s *staging) Mine() mpi.Buf {
	return s.buf.Slice(s.ctx.SlotOf(s.ctx.comm().Rank())*s.per, s.per)
}

// Result returns the gathered buffer (valid on the root's node after
// Gather; slot order).
func (g *Gatherer) Result() mpi.Buf { return g.buf }

// Input returns the full input buffer; the root fills it (slot order)
// before Scatter.
func (s *Scatterer) Input() mpi.Buf { return s.buf }

// Gather runs the timed operation with the given root (comm rank).
func (g *Gatherer) Gather(root int) error {
	return g.ctx.epoch("gather", toLeader, root, true, func(bridge *mpi.Comm, rootNode int) error {
		return g.forward(bridge, rootNode, true)
	})
}

// Scatter runs the timed operation with the given root (comm rank).
func (s *Scatterer) Scatter(root int) error {
	return s.ctx.epoch("scatter", fromRoot, root, true, func(bridge *mpi.Comm, rootNode int) error {
		return s.forward(bridge, rootNode, false)
	})
}

// forward moves whole node blocks between the root's leader and every
// other leader, each block at its node's place in the staging: towards
// the root for a gather, away from it for a scatter.
func (s *staging) forward(bridge *mpi.Comm, rootNode int, toRoot bool) error {
	if bridge == nil {
		return nil
	}
	me := bridge.Rank()
	if me != rootNode {
		return s.move(bridge, me, rootNode, toRoot)
	}
	for n := 0; n < bridge.Size(); n++ {
		if n == me {
			continue
		}
		if err := s.move(bridge, n, n, !toRoot); err != nil {
			return err
		}
	}
	return nil
}

// move sends node n's block of the staging to peer, or receives it.
func (s *staging) move(bridge *mpi.Comm, n, peer int, send bool) error {
	first, size := s.ctx.nodeSpan(n)
	blk := s.buf.Slice(first*s.per, size*s.per)
	if send {
		return bridge.Send(blk, peer, tagHyRooted)
	}
	_, err := bridge.Recv(blk, peer, tagHyRooted)
	return err
}

// Reducer is the hybrid rooted reduce: like Allreducer, but the leaders
// run a tree reduce on the bridge, so the result lands only on the
// root's node.
type Reducer struct{ Allreducer }

// NewReducer prepares a hybrid reduce of count elements of dt.
func (c *Ctx) NewReducer(count int, dt mpi.Datatype) (*Reducer, error) {
	r, _, _ := mpi.SetupSlab[Reducer](c.comm(), nil)
	if err := r.init(c, count, dt); err != nil {
		return nil, err
	}
	return r, nil
}

// Reduce runs the timed operation onto root (comm rank).
func (r *Reducer) Reduce(op mpi.Op, root int) error {
	return r.ctx.epoch("reduce", toLeader, root, true, func(bridge *mpi.Comm, rootNode int) error {
		if !r.ctx.IsLeader() {
			return nil
		}
		r.foldNode(op)
		if bridge == nil {
			return nil
		}
		err := coll.Reduce(bridge, r.out, r.scratch, r.count, r.dt, op, rootNode)
		if err == nil && bridge.Rank() == rootNode {
			r.ctx.node().Proc().CopyLocal(r.out, r.scratch, 1)
		}
		return err
	})
}
