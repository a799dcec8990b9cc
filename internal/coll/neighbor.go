package coll

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// The neighborhood collective (MPI-3 MPI_Neighbor_alltoall): a sparse
// exchange over a communicator's process topology (mpi.CartCreate).
// Each rank sends one block per out-neighbor and receives one block per
// in-neighbor, slots ordered exactly like the neighborhood edge lists;
// ProcNull slots keep their buffer positions but move no data. Two
// algorithms are registered:
//
//   - pairwise: per grid dimension, one exchange in the negative then
//     the positive direction of travel — the hand-rolled halo pattern
//     stencil codes use, with the same deterministic virtual timeline.
//   - linear: post every receive, then every send, then complete all —
//     the NBX-style path, which also serves self-edges and multi-edges.
//
// The selection engine picks between them like for every collective:
// the table policy pins pairwise, the cost policy prices both at the
// call's degree and block size.

// tagNeighborAlltoall is the neighborhood tag base: a stride of 256
// relative tags — ample for the direction-of-travel tags 2*dim+dir,
// which mpi.MaxCartDims caps at 2*32-1 — spaced well clear of the
// single-tag collective block at 1<<25.
const tagNeighborAlltoall = 1<<25 + 1<<10 + 256

// neighborCall is one validated call: the communicator's neighborhood
// and the slot addressing of both buffers. bytes is the per-neighbor
// block the selection engine prices.
type neighborCall struct {
	c          *mpi.Comm
	in, out    []mpi.NeighborEdge
	send, recv blocks
	bytes      int
}

// openNeighbor validates a call with one block size: slot i of either
// buffer is its i-th block of per bytes. It reports a usable error for
// communicators without a process topology.
func openNeighbor(c *mpi.Comm, send, recv mpi.Buf, per int) (*neighborCall, error) {
	if c == nil {
		return nil, fmt.Errorf("coll: neighbor alltoall on nil communicator")
	}
	in, out, ok := c.Neighborhood()
	switch {
	case !ok:
		return nil, fmt.Errorf("coll: neighbor alltoall needs a communicator with a process topology (CartCreate)")
	case per < 0:
		return nil, fmt.Errorf("coll: negative neighbor block size %d", per)
	case send.Len() < per*len(out):
		return nil, fmt.Errorf("coll: neighbor send buffer %dB < %dB", send.Len(), per*len(out))
	case recv.Len() < per*len(in):
		return nil, fmt.Errorf("coll: neighbor recv buffer %dB < %d slots of %dB", recv.Len(), len(in), per)
	}
	return &neighborCall{c: c, in: in, out: out,
		send: blocks{buf: send, per: per}, recv: blocks{buf: recv, per: per}, bytes: per}, nil
}

// nonNull counts the edges that move data.
func nonNull(edges []mpi.NeighborEdge) int {
	n := 0
	for _, e := range edges {
		if e.Peer != mpi.ProcNull {
			n++
		}
	}
	return n
}

// envForNeighbor derives the selection environment of a neighborhood
// call: Bytes is the per-neighbor block, Degree the larger non-null
// neighbor count, Cart whether the pairwise grid exchange applies.
func envForNeighbor(c *mpi.Comm, in, out []mpi.NeighborEdge, bytes int) Env {
	e := envFor(c, bytes, 0)
	e.Degree = max(nonNull(in), nonNull(out))
	e.Cart = c.IsCart()
	return e
}

// neighborPairwiseCost prices the per-dimension paired exchange:
// Degree serialized steps, each one latency plus one block.
func neighborPairwiseCost(e Env) sim.Time {
	return timesT(e.Degree, alphaT(e)+betaT(e, e.Bytes))
}

// neighborLinearCost prices the posted-all exchange: the posts overlap
// on the wire (one latency each way) but serialize through the rank's
// injection port — Degree blocks of bandwidth plus Degree posting
// overheads.
func neighborLinearCost(e Env) sim.Time {
	return timesT(2, alphaT(e)) + betaT(e, e.Degree*e.Bytes) +
		timesT(e.Degree, e.Model.SendOverhead)
}

// pairwise executes the paired per-dimension exchange on a Cartesian
// communicator: for each dimension, one step in the negative direction
// of travel (send to the negative neighbor, receive from the positive
// one — their block travels negative too), then one in the positive.
// Each step is a plain Sendrecv, degenerating to Send/Recv at
// non-periodic boundaries (ProcNull on one side) and to a self-exchange
// on 1-wide periodic dims.
func (k *neighborCall) pairwise() error {
	if !k.c.IsCart() {
		return fmt.Errorf("coll: pairwise neighbor exchange needs a Cartesian topology")
	}
	for d := 0; d < len(k.out)/2; d++ {
		// Travel negative: out slot 2d (to the negative side), in slot
		// 2d+1 (the positive side's block arriving). Tags agree by
		// construction (both are 2d).
		if err := k.step(2*d, 2*d+1); err != nil {
			return fmt.Errorf("coll: neighbor exchange dim %d negative: %w", d, err)
		}
		// Travel positive: out slot 2d+1, in slot 2d (tags 2d+1).
		if err := k.step(2*d+1, 2*d); err != nil {
			return fmt.Errorf("coll: neighbor exchange dim %d positive: %w", d, err)
		}
	}
	return nil
}

// step is one direction of one dimension, out slot i against in slot j:
// a Sendrecv when both sides exist, a lone Send/Recv at a boundary.
func (k *neighborCall) step(i, j int) error {
	c, tagBase, oe, ie := k.c, tagNeighborAlltoall, k.out[i], k.in[j]
	switch {
	case oe.Peer != mpi.ProcNull && ie.Peer != mpi.ProcNull:
		_, err := c.Sendrecv(k.send.at(i), oe.Peer, tagBase+oe.Tag, k.recv.at(j), ie.Peer, tagBase+ie.Tag)
		return err
	case oe.Peer != mpi.ProcNull:
		return c.Send(k.send.at(i), oe.Peer, tagBase+oe.Tag)
	case ie.Peer != mpi.ProcNull:
		_, err := c.Recv(k.recv.at(j), ie.Peer, tagBase+ie.Tag)
		return err
	default:
		return nil
	}
}

// linear executes the posted-all exchange: every receive is posted (in
// slot order), then every send, then all complete. Works on any
// neighborhood, including self-edges (the receive is already posted
// when the matching send arrives) and multi-edges (FIFO matching pairs
// them in slot order on both sides).
func (k *neighborCall) linear() error {
	reqs := make([]*mpi.Request, 0, len(k.in)+len(k.out))
	for j, e := range k.in {
		if e.Peer == mpi.ProcNull {
			continue
		}
		r, err := k.c.Irecv(k.recv.at(j), e.Peer, tagNeighborAlltoall+e.Tag)
		if err != nil {
			return err
		}
		reqs = append(reqs, r)
	}
	for i, e := range k.out {
		if e.Peer == mpi.ProcNull {
			continue
		}
		r, err := k.c.Isend(k.send.at(i), e.Peer, tagNeighborAlltoall+e.Tag)
		if err != nil {
			return err
		}
		reqs = append(reqs, r)
	}
	return mpi.Waitall(reqs...)
}

// selected runs the shape the selection engine resolves for the call.
func (k *neighborCall) selected() error {
	run, err := dispatch[neighborFn](k.c, CollNeighborAlltoall, envForNeighbor(k.c, k.in, k.out, k.bytes), false)
	if err != nil {
		return err
	}
	return run(k)
}

// NeighborAlltoall sends a distinct block of `per` bytes to each
// out-neighbor (send slot i to out-neighbor i) and gathers one block
// per in-neighbor (MPI_Neighbor_alltoall). The algorithm is resolved
// by the selection engine.
func NeighborAlltoall(c *mpi.Comm, send, recv mpi.Buf, per int) error {
	k, err := openNeighbor(c, send, recv, per)
	if err != nil {
		return err
	}
	return k.selected()
}
