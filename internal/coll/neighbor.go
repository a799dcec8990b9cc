package coll

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// Neighborhood collectives (MPI-3 MPI_Neighbor_*): sparse exchanges
// over a communicator's process topology (mpi.CartCreate /
// mpi.DistGraphCreate). Each rank sends one block per out-neighbor and
// receives one block per in-neighbor, slots ordered exactly like the
// neighborhood edge lists; ProcNull slots keep their buffer positions
// but move no data. Two algorithms are registered per family:
//
//   - pairwise: per grid dimension, one exchange in the negative then
//     the positive direction of travel — the hand-rolled halo pattern
//     stencil codes use, with the same deterministic virtual timeline.
//     Cartesian topologies only (it needs the grid's paired direction
//     structure).
//   - linear: post every receive, then every send, then complete all —
//     the NBX-style path that serves arbitrary graphs, including
//     self-edges and multi-edges.
//
// The selection engine picks between them like for every collective:
// the table policy pins pairwise on grids and linear on graphs, the
// cost policy prices both at the call's degree and block size.

// Neighborhood tag bases. Each family gets a stride of 256 relative
// tags — ample for the direction-of-travel tags 2*dim+dir, which
// mpi.MaxCartDims caps at 2*32-1 — spaced well clear of the
// single-tag collective block at 1<<25.
const (
	tagNeighborAllgather = 1<<25 + 1<<10 + 256*iota
	tagNeighborAlltoall
	tagNeighborAlltoallv
)

// neighborFamily is one row of the neighborhood table: what tells
// MPI_Neighbor_allgather, _alltoall and _alltoallv apart once a call is
// validated and its blocks are addressed. Every public form is a family
// crossed with a shape (pairwise, linear, the engine's pick of the two,
// or the nonblocking schedule).
type neighborFamily struct {
	name    string     // as errors spell it
	cl      Collective // the family's registry entries
	tagBase int
	gather  bool // every out-neighbor is sent the caller's one block, not its own slot
}

var (
	nbrAllgather = neighborFamily{"neighbor allgather", CollNeighborAllgather, tagNeighborAllgather, true}
	nbrAlltoall  = neighborFamily{"neighbor alltoall", CollNeighborAlltoall, tagNeighborAlltoall, false}
	nbrAlltoallv = neighborFamily{"neighbor alltoallv", CollNeighborAlltoallv, tagNeighborAlltoallv, false}
)

// neighborCall is one validated call: the communicator's neighborhood
// and the slot addressing of both buffers. bytes is the per-neighbor
// block the selection engine prices.
type neighborCall struct {
	f          *neighborFamily
	c          *mpi.Comm
	in, out    []mpi.NeighborEdge
	send, recv blocks
	bytes      int
}

// open fetches the communicator's neighborhood or reports a usable
// error for plain communicators.
func (f *neighborFamily) open(c *mpi.Comm) (*neighborCall, error) {
	if c == nil {
		return nil, fmt.Errorf("coll: %s on nil communicator", f.name)
	}
	in, out, ok := c.Neighborhood()
	if !ok {
		return nil, fmt.Errorf("coll: %s needs a communicator with a process topology (CartCreate / DistGraphCreate)", f.name)
	}
	return &neighborCall{f: f, c: c, in: in, out: out}, nil
}

// regular validates a call with one block size: slot i of either buffer
// is its i-th block of per bytes.
func (f *neighborFamily) regular(c *mpi.Comm, send, recv mpi.Buf, per int) (*neighborCall, error) {
	k, err := f.open(c)
	if err != nil {
		return nil, err
	}
	sendNeed := per * len(k.out)
	if f.gather {
		sendNeed = per
	}
	switch {
	case per < 0:
		return nil, fmt.Errorf("coll: negative neighbor block size %d", per)
	case send.Len() < sendNeed:
		return nil, fmt.Errorf("coll: neighbor send buffer %dB < %dB", send.Len(), sendNeed)
	case recv.Len() < per*len(k.in):
		return nil, fmt.Errorf("coll: neighbor recv buffer %dB < %d slots of %dB", recv.Len(), len(k.in), per)
	}
	k.send, k.recv, k.bytes = blocks{buf: send, per: per}, blocks{buf: recv, per: per}, per
	return k, nil
}

// irregular validates a call with per-slot byte counts, blocks packed
// back to back in slot order.
func (f *neighborFamily) irregular(c *mpi.Comm, send mpi.Buf, sendCounts []int, recv mpi.Buf, recvCounts []int) (*neighborCall, error) {
	k, err := f.open(c)
	if err != nil {
		return nil, err
	}
	if len(sendCounts) != len(k.out) {
		return nil, fmt.Errorf("coll: %d send counts for %d out-neighbors", len(sendCounts), len(k.out))
	}
	if len(recvCounts) != len(k.in) {
		return nil, fmt.Errorf("coll: %d recv counts for %d in-neighbors", len(recvCounts), len(k.in))
	}
	if k.send, err = packedBlocks(send, sendCounts, "neighbor send"); err != nil {
		return nil, err
	}
	if k.recv, err = packedBlocks(recv, recvCounts, "neighbor recv"); err != nil {
		return nil, err
	}
	for _, n := range sendCounts {
		k.bytes = max(k.bytes, n)
	}
	return k, nil
}

// packedBlocks addresses per-slot byte counts packed back to back and
// validates the buffer length.
func packedBlocks(buf mpi.Buf, counts []int, what string) (blocks, error) {
	for i, n := range counts {
		if n < 0 {
			return blocks{}, fmt.Errorf("coll: negative %s count %d at slot %d", what, n, i)
		}
	}
	if total := Total(counts); buf.Len() < total {
		return blocks{}, fmt.Errorf("coll: %s buffer %dB < %dB of counted blocks", what, buf.Len(), total)
	}
	return blocks{buf: buf, counts: counts, displs: Displs(counts)}, nil
}

// sendAt addresses the block out-neighbor slot i is sent.
func (k *neighborCall) sendAt(i int) mpi.Buf {
	if k.f.gather {
		i = 0
	}
	return k.send.at(i)
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
	c, tagBase, oe, ie := k.c, k.f.tagBase, k.out[i], k.in[j]
	switch {
	case oe.Peer != mpi.ProcNull && ie.Peer != mpi.ProcNull:
		_, err := c.Sendrecv(k.sendAt(i), oe.Peer, tagBase+oe.Tag, k.recv.at(j), ie.Peer, tagBase+ie.Tag)
		return err
	case oe.Peer != mpi.ProcNull:
		return c.Send(k.sendAt(i), oe.Peer, tagBase+oe.Tag)
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
		r, err := k.c.Irecv(k.recv.at(j), e.Peer, k.f.tagBase+e.Tag)
		if err != nil {
			return err
		}
		reqs = append(reqs, r)
	}
	for i, e := range k.out {
		if e.Peer == mpi.ProcNull {
			continue
		}
		r, err := k.c.Isend(k.sendAt(i), e.Peer, k.f.tagBase+e.Tag)
		if err != nil {
			return err
		}
		reqs = append(reqs, r)
	}
	return mpi.Waitall(reqs...)
}

// selected runs the shape the selection engine resolves for the call.
func (k *neighborCall) selected() error {
	run, err := dispatch[neighborFn](k.c, k.f.cl, envForNeighbor(k.c, k.in, k.out, k.bytes), false)
	if err != nil {
		return err
	}
	return run(k)
}

// sched compiles the one-round posted-all schedule of the nonblocking
// forms: all receives (slot order), then all sends, relative tags
// straight from the neighborhood edges.
func (k *neighborCall) sched() *mpi.Sched {
	ops := make([]mpi.SchedOp, 0, len(k.in)+len(k.out))
	for j, e := range k.in {
		if e.Peer == mpi.ProcNull {
			continue
		}
		ops = append(ops, mpi.SchedRecv(k.recv.at(j), e.Peer, e.Tag))
	}
	for i, e := range k.out {
		if e.Peer == mpi.ProcNull {
			continue
		}
		ops = append(ops, mpi.SchedSend(k.sendAt(i), e.Peer, e.Tag))
	}
	if len(ops) == 0 {
		return k.c.NewSched(nil)
	}
	return k.c.NewSched([]mpi.Round{{Ops: ops}})
}

// run and runV validate a call and hand it to one shape.
func (f *neighborFamily) run(c *mpi.Comm, send, recv mpi.Buf, per int, shape neighborFn) error {
	k, err := f.regular(c, send, recv, per)
	if err != nil {
		return err
	}
	return shape(k)
}

func (f *neighborFamily) runV(c *mpi.Comm, send mpi.Buf, sendCounts []int, recv mpi.Buf, recvCounts []int, shape neighborFn) error {
	k, err := f.irregular(c, send, sendCounts, recv, recvCounts)
	if err != nil {
		return err
	}
	return shape(k)
}

// NeighborAllgather sends the caller's single block of `per` bytes to
// every out-neighbor and gathers one block per in-neighbor into recv,
// in neighborhood slot order (MPI_Neighbor_allgather). The algorithm
// is resolved by the selection engine.
func NeighborAllgather(c *mpi.Comm, send, recv mpi.Buf, per int) error {
	return nbrAllgather.run(c, send, recv, per, (*neighborCall).selected)
}

// NeighborAllgatherPairwise is the paired per-dimension exchange
// (Cartesian topologies only).
func NeighborAllgatherPairwise(c *mpi.Comm, send, recv mpi.Buf, per int) error {
	return nbrAllgather.run(c, send, recv, per, (*neighborCall).pairwise)
}

// NeighborAllgatherLinear is the posted-all exchange (any topology).
func NeighborAllgatherLinear(c *mpi.Comm, send, recv mpi.Buf, per int) error {
	return nbrAllgather.run(c, send, recv, per, (*neighborCall).linear)
}

// NeighborAlltoall sends a distinct block of `per` bytes to each
// out-neighbor (send slot i to out-neighbor i) and gathers one block
// per in-neighbor (MPI_Neighbor_alltoall). The algorithm is resolved
// by the selection engine.
func NeighborAlltoall(c *mpi.Comm, send, recv mpi.Buf, per int) error {
	return nbrAlltoall.run(c, send, recv, per, (*neighborCall).selected)
}

// NeighborAlltoallPairwise is the paired per-dimension exchange
// (Cartesian topologies only).
func NeighborAlltoallPairwise(c *mpi.Comm, send, recv mpi.Buf, per int) error {
	return nbrAlltoall.run(c, send, recv, per, (*neighborCall).pairwise)
}

// NeighborAlltoallLinear is the posted-all exchange (any topology).
func NeighborAlltoallLinear(c *mpi.Comm, send, recv mpi.Buf, per int) error {
	return nbrAlltoall.run(c, send, recv, per, (*neighborCall).linear)
}

// NeighborAlltoallv is the irregular complete neighborhood exchange
// (MPI_Neighbor_alltoallv with packed displacements): sendCounts[i]
// bytes go to out-neighbor i, recvCounts[j] bytes arrive from
// in-neighbor j, blocks packed back to back in slot order. The
// algorithm is resolved by the selection engine.
func NeighborAlltoallv(c *mpi.Comm, send mpi.Buf, sendCounts []int, recv mpi.Buf, recvCounts []int) error {
	return nbrAlltoallv.runV(c, send, sendCounts, recv, recvCounts, (*neighborCall).selected)
}

// NeighborAlltoallvPairwise is the paired per-dimension irregular
// exchange (Cartesian topologies only).
func NeighborAlltoallvPairwise(c *mpi.Comm, send mpi.Buf, sendCounts []int, recv mpi.Buf, recvCounts []int) error {
	return nbrAlltoallv.runV(c, send, sendCounts, recv, recvCounts, (*neighborCall).pairwise)
}

// NeighborAlltoallvLinear is the posted-all irregular exchange (any
// topology).
func NeighborAlltoallvLinear(c *mpi.Comm, send mpi.Buf, sendCounts []int, recv mpi.Buf, recvCounts []int) error {
	return nbrAlltoallv.runV(c, send, sendCounts, recv, recvCounts, (*neighborCall).linear)
}

// IneighborAllgather starts a nonblocking neighborhood allgather as a
// schedule on the asynchronous progress engine (mpi.Sched): one round
// posting every receive and send, completion fused at Wait. send and
// recv must stay untouched until Wait.
func IneighborAllgather(c *mpi.Comm, send, recv mpi.Buf, per int) (*mpi.Sched, error) {
	k, err := nbrAllgather.regular(c, send, recv, per)
	if err != nil {
		return nil, err
	}
	return k.sched(), nil
}

// IneighborAlltoall starts a nonblocking neighborhood alltoall as a
// schedule on the asynchronous progress engine (mpi.Sched). send and
// recv must stay untouched until Wait.
func IneighborAlltoall(c *mpi.Comm, send, recv mpi.Buf, per int) (*mpi.Sched, error) {
	k, err := nbrAlltoall.regular(c, send, recv, per)
	if err != nil {
		return nil, err
	}
	return k.sched(), nil
}
