package coll

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// This file holds the step arithmetic of the package's textbook
// exchanges — ring, recursive doubling, the fold onto a power-of-two
// core, the binomial tree — each written once, one view that addresses
// the blocks of a gathered buffer, and the three blocking exchanges
// built on them. The regular, in-place, v, strided and nonblocking
// public forms differ only in the view, tag and penalty they pass (or,
// for the schedules in nonblocking.go, in compiling the same steps into
// rounds instead of running them). The primitives are plain functions
// returning values: they sit under thousands of calls per benchmark op,
// so nothing here may escape to the heap.

// ringStep returns the blocks a ring position forwards to its right
// neighbour and receives from its left at step i of the n-1 step ring:
// the block it received in the previous step, starting with its own.
func ringStep(pos, n, i int) (int, int) {
	sendIdx := (pos - i + n) % n
	recvIdx := (pos - i - 1 + n) % n
	return sendIdx, recvIdx
}

// doublingStep returns a position's partner at one recursive-doubling
// step and the first block of the mask-aligned group each side holds:
// the caller sends [haveBase, haveBase+mask) and receives the partner's
// adjacent group [getBase, getBase+mask).
func doublingStep(pos, mask int) (int, int, int) {
	partner := pos ^ mask
	haveBase := pos &^ (mask - 1)
	getBase := partner &^ (mask - 1)
	return partner, haveBase, getBase
}

// coreRole maps a rank of an n-rank communicator onto its largest
// power-of-two core, MPICH style: the first 2*rem ranks pair up, evens
// hand their contribution to their odd neighbour and sit out
// (coreRank -1), odds and everyone beyond renumber densely.
// coreToComm is the inverse.
func coreRole(rank, n int) (coreRank, pof2, rem int) {
	pof2, rem = foldCore(n)
	switch {
	case rank >= 2*rem:
		return rank - rem, pof2, rem
	case rank%2 == 0:
		return -1, pof2, rem
	default:
		return rank / 2, pof2, rem
	}
}

func foldCore(n int) (pof2, rem int) {
	pof2 = 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	return pof2, n - pof2
}

func coreToComm(coreRank, rem int) int {
	if coreRank < rem {
		return coreRank*2 + 1
	}
	return coreRank + rem
}

// binomialParent returns the mask at which relative rank rel meets its
// parent rel-mask in an n-rank binomial tree (rel's lowest set bit), or
// the first power of two >= n for the root. Either way the rank's
// children sit at rel+m for every power of two m below the result.
func binomialParent(rel, n int) int {
	mask := 1
	for mask < n && rel&mask == 0 {
		mask <<= 1
	}
	return mask
}

// blocks addresses the per-rank blocks of a gathered buffer. With
// counts nil the layout is uniform: block i is buf[i*per, (i+1)*per),
// clipped to the end of buf (a broadcast payload cut into n pieces ends
// in short or empty ones). Otherwise block i is
// buf[displs[i], displs[i]+counts[i]): displs is Displs(counts) for
// the standard v layout, or whatever the caller placed its blocks at.
type blocks struct {
	buf    mpi.Buf
	per    int
	counts []int
	displs []int
}

// at returns block i.
func (v blocks) at(i int) mpi.Buf { return v.span(i, 1) }

// span returns the bytes covering blocks [base, base+m). On a layout
// with caller displacements only m == 1 is meaningful; the doubling
// exchange, which moves runs of blocks, is never selected for one.
func (v blocks) span(base, m int) mpi.Buf {
	if v.counts != nil {
		last := base + m - 1
		return v.buf.Slice(v.displs[base], v.displs[last]+v.counts[last]-v.displs[base])
	}
	lo, hi := min(base*v.per, v.buf.Len()), min((base+m)*v.per, v.buf.Len())
	return v.buf.Slice(lo, hi-lo)
}

// family is what tells one caller of a shared exchange from another:
// the tag its messages carry, the bookkeeping cost it charges before
// every step (the v family's AllgathervStepPenalty; zero elsewhere),
// and the name its errors carry.
type family struct {
	name    string
	tag     int
	penalty sim.Time
}

// ringExchange is the bandwidth-optimal ring over already-placed
// blocks: n-1 steps, each rank forwarding to its right neighbour the
// block it received from its left in the previous step. pos is the
// caller's position in the ring's block index space — its rank, or its
// root-relative rank when the blocks are laid out that way. Latency
// grows linearly in n, and on irregular blocks every step costs as much
// as the largest block in flight, which is why the irregular-population
// case (paper Fig. 10) hurts the pure-MPI flavor that must run it over
// all ranks.
func ringExchange(c *mpi.Comm, v blocks, pos int, f family) error {
	n := c.Size()
	right, left := (c.Rank()+1)%n, (c.Rank()-1+n)%n
	for i := 0; i < n-1; i++ {
		s, r := ringStep(pos, n, i)
		if f.penalty > 0 {
			c.Proc().Elapse(f.penalty)
		}
		if _, err := c.Sendrecv(v.at(s), right, f.tag, v.at(r), left, f.tag); err != nil {
			return fmt.Errorf("coll: %s ring step %d: %w", f.name, i, err)
		}
	}
	return nil
}

// doublingExchange is recursive doubling over already-placed blocks:
// log2(n) exchanges that double the gathered range each time. n must be
// a power of two; pos is the caller's position among the n blocks and
// rem translates positions to comm ranks (coreToComm; 0 when the
// exchange spans the whole communicator).
func doublingExchange(c *mpi.Comm, v blocks, pos, n, rem int, f family) error {
	for mask := 1; mask < n; mask <<= 1 {
		partnerPos, have, get := doublingStep(pos, mask)
		partner := coreToComm(partnerPos, rem)
		if f.penalty > 0 {
			c.Proc().Elapse(f.penalty)
		}
		if _, err := c.Sendrecv(v.span(have, mask), partner, f.tag, v.span(get, mask), partner, f.tag); err != nil {
			return fmt.Errorf("coll: %s recdbl mask %d: %w", f.name, mask, err)
		}
	}
	return nil
}

// gatherAtRoot is the linear gather: every other rank sends mine
// straight to root, which receives block r from rank r in rank order
// (arrivals overlap on the wire; the root serializes only its own
// unpacking). The root's own block is the caller's business — copied
// from a send buffer, or already in place.
func gatherAtRoot(c *mpi.Comm, mine mpi.Buf, v blocks, root int, f family) error {
	if c.Rank() != root {
		return c.Send(mine, root, f.tag)
	}
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		if _, err := c.Recv(v.at(r), r, f.tag); err != nil {
			return fmt.Errorf("coll: %s from %d: %w", f.name, r, err)
		}
	}
	return nil
}
