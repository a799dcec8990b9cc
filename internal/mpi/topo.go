package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// This file implements process topologies: Cartesian grids
// (MPI_Cart_create), attached to communicator handles. A
// topology-carrying communicator exposes a neighborhood — ordered in-
// and out-edge lists — which internal/coll's neighborhood collective
// iterates. The optional Cartesian reorder maps grid bricks onto
// machine-topology groups (sim.TileExtents) so grid neighbors land on
// low hop classes.

// ProcNull is the null process rank (MPI_PROC_NULL): the neighbor past
// a non-periodic grid boundary. A neighborhood slot
// whose peer is ProcNull takes part in no transfer, but its buffer
// block keeps its position.
const ProcNull = -1

// MaxCartDims bounds the dimensionality of a Cartesian topology: the
// largest grid whose direction-of-travel tags (2*dim+dir, at most
// 2*MaxCartDims-1) still fit inside one nonblocking-schedule tag
// stride (see mpi.Sched's schedTagStride), so neighborhood schedules
// can never alias tags across dimensions.
const MaxCartDims = schedTagStride / 2

// NeighborEdge is one edge of a communicator's neighborhood: the peer
// (a comm rank, or ProcNull for a missing Cartesian neighbor) and the
// schedule-relative matching tag both endpoints of the edge derive
// independently. On Cartesian topologies the tag encodes the
// direction of travel (2*dim for the negative direction, 2*dim+1 for
// the positive), which keeps blocks unambiguous even when both
// directions of a dimension reach the same peer (2-wide periodic
// dims) or the peer is the rank itself (1-wide periodic dims).
type NeighborEdge struct {
	Peer int
	Tag  int
}

// procTopo is the topology state attached to a communicator handle.
type procTopo struct {
	cart    *cartInfo      // non-nil for Cartesian topologies
	in, out []NeighborEdge // neighborhood, shared read-only
}

// cartInfo is the Cartesian grid shape. Coordinates are row-major over
// dims (the last dimension varies fastest), exactly MPI's convention.
type cartInfo struct {
	dims    []int
	periods []bool
}

// rowMajorRank linearizes coordinates over dims (last dim fastest).
func rowMajorRank(coords, dims []int) int {
	r := 0
	for d := range dims {
		r = r*dims[d] + coords[d]
	}
	return r
}

// rowMajorCoords fills out with the coordinates of rank over dims.
func rowMajorCoords(rank int, dims, out []int) {
	for d := len(dims) - 1; d >= 0; d-- {
		out[d] = rank % dims[d]
		rank /= dims[d]
	}
}

// cartPlan is the shared outcome of one CartCreate call: the grid's
// context (its table is grid rank -> global rank) plus every parent
// rank's grid position, computed once by whichever member arrives first
// (SetupOnce) — the partition is fully determined by world-global data,
// so no exchange runs.
type cartPlan struct {
	info   *cartInfo
	cx     *Context
	gridOf []int // parent comm rank -> grid rank, -1 beyond the volume
}

// CartCreate builds a communicator with an attached N-dimensional
// Cartesian topology (MPI_Cart_create): dims are the per-dimension
// extents, periods marks the wraparound dimensions. Ranks beyond the
// grid volume receive nil (MPI_COMM_NULL); the call is collective over
// the parent communicator.
//
// With reorder false, comm ranks keep the parent's order: grid rank r
// is parent comm rank r, bit-for-bit the layout a hand-rolled
// decomposition over the parent would use. With reorder true, the
// runtime may permute ranks so that each machine-topology node holds a
// compact brick of the grid (sim.TileExtents over the node size),
// turning most halo neighbors into intra-node peers; when no exact
// brick decomposition exists the identity order is kept. The partition
// is a pure function of the machine topology, the parent rank table
// and the grid, so one member computes it and the rest perform O(1)
// lookups (SetupOnce) — no exchange, like SplitLevel.
func (c *Comm) CartCreate(dims []int, periods []bool, reorder bool) (*Comm, error) {
	if c == nil {
		return nil, fmt.Errorf("mpi: CartCreate on nil communicator")
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("mpi: CartCreate needs at least one dimension")
	}
	if len(dims) > MaxCartDims {
		// Direction-of-travel tags (2*dim+dir) must fit the schedule
		// tag stride of the nonblocking neighborhood collectives;
		// beyond it, tags would alias across dimensions and match
		// blocks into the wrong slots. Fail loudly instead.
		return nil, fmt.Errorf("mpi: CartCreate supports at most %d dimensions, got %d", MaxCartDims, len(dims))
	}
	if len(periods) != len(dims) {
		return nil, fmt.Errorf("mpi: CartCreate got %d dims but %d periods", len(dims), len(periods))
	}
	vol := 1
	for d, n := range dims {
		if n <= 0 {
			return nil, fmt.Errorf("mpi: CartCreate dimension %d has extent %d", d, n)
		}
		vol *= n
	}
	if vol > c.Size() {
		return nil, fmt.Errorf("mpi: CartCreate grid volume %d exceeds communicator size %d", vol, c.Size())
	}

	v, err := SetupOnce(c, func() (any, error) {
		return buildCartPlan(c, dims, periods, vol, reorder), nil
	})
	if err != nil {
		return nil, err
	}
	plan := v.(*cartPlan)
	g := plan.gridOf[c.rank]
	if g < 0 {
		return nil, nil
	}
	nc := c.NewGroupComm(plan.cx, g)
	in, out := cartEdges(plan.info, g)
	nc.ptopo = &procTopo{cart: plan.info, in: in, out: out}
	return nc, nil
}

// buildCartPlan assembles the shared plan of one CartCreate call.
func buildCartPlan(c *Comm, dims []int, periods []bool, vol int, reorder bool) *cartPlan {
	plan := &cartPlan{
		info: &cartInfo{
			dims:    append([]int(nil), dims...),
			periods: append([]bool(nil), periods...),
		},
		gridOf: make([]int, c.Size()),
	}
	ranks := make([]int, vol) // grid rank -> global rank
	var perm []int            // parent comm rank -> grid rank; nil = identity
	if reorder {
		perm = cartReorderPlan(c, dims, vol)
	}
	for r := range plan.gridOf {
		plan.gridOf[r] = -1
	}
	for r := 0; r < vol; r++ {
		g := r
		if perm != nil {
			g = perm[r]
		}
		plan.gridOf[r] = g
		ranks[g] = c.cx.ranks[r]
	}
	plan.cx = c.p.world.NewContext(ranks)
	return plan
}

// cartReorderPlan computes the parent-rank -> grid-rank permutation of
// a reordering CartCreate, or nil when the identity order must be
// kept. The heuristic: the first vol parent ranks must fall into
// equal-length runs of node-sharing members (SMP placement gives
// exactly that), and the node size must brick-decompose the grid
// (sim.TileExtents). Each node then owns one brick, enumerated
// row-major over the brick grid, with the node's members filling the
// brick row-major — so every neighbor pair inside a brick is an
// intra-node hop.
func cartReorderPlan(c *Comm, dims []int, vol int) []int {
	topo := c.p.world.topo
	// Runs of node-sharing members over the first vol parent ranks.
	ppn := 0
	ranks := c.cx.ranks
	runStart, runNode := 0, topo.NodeOf(ranks[0])
	for r := 1; r <= vol; r++ {
		if r == vol || topo.NodeOf(ranks[r]) != runNode {
			runLen := r - runStart
			if ppn == 0 {
				ppn = runLen
			} else if runLen != ppn {
				return nil
			}
			if r < vol {
				runStart, runNode = r, topo.NodeOf(ranks[r])
			}
		}
	}
	if ppn <= 1 || vol%ppn != 0 {
		return nil
	}
	ext, ok := sim.TileExtents(ppn, dims)
	if !ok {
		return nil
	}
	tdims := make([]int, len(dims))
	for d := range dims {
		tdims[d] = dims[d] / ext[d]
	}
	plan := make([]int, vol)
	coords := make([]int, len(dims))
	tc := make([]int, len(dims))
	lc := make([]int, len(dims))
	for r := 0; r < vol; r++ {
		rowMajorCoords(r/ppn, tdims, tc)
		rowMajorCoords(r%ppn, ext, lc)
		for d := range coords {
			coords[d] = tc[d]*ext[d] + lc[d]
		}
		plan[r] = rowMajorRank(coords, dims)
	}
	return plan
}

// cartEdges builds the neighborhood of one grid rank: for each
// dimension, the negative-direction neighbor then the positive one —
// MPI's neighbor order for Cartesian neighborhood collectives.
// Missing neighbors (past a non-periodic boundary) appear as ProcNull
// edges so buffer slots keep their positions. Tags encode direction
// of travel: a block sent toward negative (tag 2d) arrives at its
// receiver's positive-side slot, and vice versa.
func cartEdges(info *cartInfo, rank int) (in, out []NeighborEdge) {
	nd := len(info.dims)
	coords := make([]int, nd)
	rowMajorCoords(rank, info.dims, coords)
	in = make([]NeighborEdge, 0, 2*nd)
	out = make([]NeighborEdge, 0, 2*nd)
	for d := 0; d < nd; d++ {
		neg := cartNeighbor(info, coords, d, -1)
		pos := cartNeighbor(info, coords, d, +1)
		// In-slot order per dim: the neighbor on the negative side
		// (whose block traveled positive, tag 2d+1), then the
		// positive side (traveled negative, tag 2d).
		in = append(in,
			NeighborEdge{Peer: neg, Tag: 2*d + 1},
			NeighborEdge{Peer: pos, Tag: 2 * d})
		out = append(out,
			NeighborEdge{Peer: neg, Tag: 2 * d},
			NeighborEdge{Peer: pos, Tag: 2*d + 1})
	}
	return in, out
}

// cartNeighbor resolves the neighbor of coords displaced by delta
// along dim: wrapped on periodic dims, ProcNull past a non-periodic
// boundary.
func cartNeighbor(info *cartInfo, coords []int, dim, delta int) int {
	n := info.dims[dim]
	nc := coords[dim] + delta
	if info.periods[dim] {
		nc = ((nc % n) + n) % n
	} else if nc < 0 || nc >= n {
		return ProcNull
	}
	old := coords[dim]
	coords[dim] = nc
	r := rowMajorRank(coords, info.dims)
	coords[dim] = old
	return r
}

// Neighborhood returns the communicator's neighborhood edge lists
// (read-only, shared): in-edges in receive-slot order and out-edges in
// send-slot order. ok is false on communicators without a process
// topology. Cartesian neighborhoods list 2*ndims slots (per dim:
// negative then positive side) and may contain ProcNull peers.
func (c *Comm) Neighborhood() (in, out []NeighborEdge, ok bool) {
	if c.ptopo == nil {
		return nil, nil, false
	}
	return c.ptopo.in, c.ptopo.out, true
}

// IsCart reports whether the communicator carries a Cartesian process
// topology.
func (c *Comm) IsCart() bool { return c.ptopo != nil && c.ptopo.cart != nil }
