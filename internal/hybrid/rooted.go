package hybrid

import (
	"fmt"

	"repro/internal/mpi"
)

// Rooted hybrid collectives: gather and scatter with a single shared
// staging segment per node (the rooted reduce lives beside allreduce).
// They complete the collective family along the same single-copy
// principle as the paper's allgather and broadcast: children write to
// (or read from) the node segment by load/store; only leaders move
// bytes between nodes.

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
	s.buf, err = c.segment(per * c.comm.Size())
	return err
}

// NewGatherer prepares a hybrid gather of per bytes per rank (one-off).
func (c *Ctx) NewGatherer(per int) (*Gatherer, error) {
	g, _, _ := mpi.SetupSlab[Gatherer](c.comm, nil)
	if err := g.init(c, per); err != nil {
		return nil, err
	}
	return g, nil
}

// NewScatterer prepares a hybrid scatter of per bytes per rank.
func (c *Ctx) NewScatterer(per int) (*Scatterer, error) {
	s, _, _ := mpi.SetupSlab[Scatterer](c.comm, nil)
	if err := s.init(c, per); err != nil {
		return nil, err
	}
	return s, nil
}

// Mine returns this rank's slot: its input block before Gather, its
// received block after Scatter.
func (s *staging) Mine() mpi.Buf {
	return s.buf.Slice(s.ctx.SlotOf(s.ctx.comm.Rank())*s.per, s.per)
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
