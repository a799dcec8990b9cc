package hybrid

import (
	"fmt"
	"slices"

	"repro/internal/coll"
	"repro/internal/mpi"
)

// Allgatherer is the hybrid MPI+MPI allgather of the paper's Fig. 4.
// One shared buffer per node holds the full result; each rank writes its
// own partition in place (no intra-node copies ever), and only the
// leaders exchange aggregated node blocks with MPI_Allgatherv on the
// bridge communicator.
//
// Construction (window allocation, count/displacement vectors) is the
// one-off; Allgather() is the repeatedly-invoked, timed operation whose
// cost the paper measures — synchronization included.
type Allgatherer struct {
	collective
	buf   mpi.Buf // the whole shared result buffer (node's single copy)
	plan  *agPlan // counts and displacements, shared by every member
	chunk int     // >0: pipelined bridge exchange for large blocks ([30])
}

// AllgatherOption configures an Allgatherer.
type AllgatherOption func(*Allgatherer)

// WithPipelineChunk enables the chunked (pipelined) bridge exchange for
// large messages, the extension the paper's conclusion points to ([30]).
// chunk is the pipeline granularity in bytes.
func WithPipelineChunk(chunk int) AllgatherOption {
	return func(a *Allgatherer) { a.chunk = chunk }
}

// NewAllgatherer prepares a hybrid allgather of `per` bytes per rank.
// The uniform geometry is synthesized directly (no member materializes
// a full per-rank count vector).
func (c *Ctx) NewAllgatherer(per int, opts ...AllgatherOption) (*Allgatherer, error) {
	if per < 0 {
		return nil, fmt.Errorf("hybrid: negative block size %d", per)
	}
	return c.newAllgatherer(nil, per, opts)
}

// agPlan is the slot-ordered allgather geometry, computed once by
// whichever member reaches the setup slot first and shared read-only by
// every member (the count vector must agree across members, as
// MPI_Allgatherv requires, so the builder's copy is everyone's copy).
type agPlan struct {
	uniform    int   // >= 0: every count is this value (O(1) validation)
	total      int   // sum of counts
	counts     []int // bytes per rank, slot order
	displs     []int // byte offset per slot
	nodeCounts []int // bytes per node, bridge order
	nodeDispls []int
}

// NewAllgathererV prepares the irregular variant: counts[r] bytes from
// comm rank r (an extension beyond the paper, which varies only the
// per-node rank count).
func (c *Ctx) NewAllgathererV(counts []int, opts ...AllgatherOption) (*Allgatherer, error) {
	if len(counts) != c.comm.Size() {
		return nil, fmt.Errorf("hybrid: got %d counts for %d ranks", len(counts), c.comm.Size())
	}
	// Validate the local copy on every member (members must pass
	// matching vectors, but a corrupt local copy should fail loudly on
	// the rank that holds it, not silently adopt the builder's geometry).
	for r, cnt := range counts {
		if cnt < 0 {
			return nil, fmt.Errorf("hybrid: negative count %d for rank %d", cnt, r)
		}
	}
	return c.newAllgatherer(counts, 0, opts)
}

// newAllgatherer builds the allgatherer; counts == nil means a uniform
// `per` bytes per rank.
func (c *Ctx) newAllgatherer(counts []int, per int, opts []AllgatherOption) (*Allgatherer, error) {
	// No exchange runs: the plan is fully determined by the context
	// geometry and the (identical, per MPI_Allgatherv semantics) member
	// arguments, so it is built once per collective call through the
	// world's setup slot.
	a, v, err := mpi.SetupSlab[Allgatherer](c.comm, func() (any, error) {
		plan := &agPlan{uniform: per, counts: make([]int, c.comm.Size())}
		if counts != nil {
			plan.uniform = -1
		}
		for slot := range plan.counts {
			plan.counts[slot] = per
			if counts != nil {
				plan.counts[slot] = counts[c.RankAt(slot)]
			}
		}
		plan.total = coll.Total(plan.counts)
		plan.displs = coll.Displs(plan.counts)
		plan.nodeCounts = make([]int, c.Nodes())
		plan.nodeDispls = make([]int, c.Nodes())
		for n := 0; n < c.Nodes(); n++ {
			first, size := c.nodeSpan(n)
			plan.nodeDispls[n] = plan.displs[first]
			plan.nodeCounts[n] = coll.Total(plan.counts[first : first+size])
		}
		return plan, nil
	})
	if err != nil {
		return nil, err
	}
	plan := v.(*agPlan)
	a.ctx = c
	for _, o := range opts {
		o(a)
	}
	// Members must have passed the same geometry the plan was built
	// from; a divergent local vector is an application bug that must
	// fail loudly, not silently run with the builder's placement. The
	// uniform case compares one value; the irregular variant — and mixed
	// constructors, where a member passed an explicitly uniform vector
	// to the V variant, which still agree when every slot holds per —
	// check the whole vector.
	if counts != nil || plan.uniform != per {
		for slot, cnt := range plan.counts {
			want := per
			if counts != nil {
				want = counts[c.RankAt(slot)]
			}
			if cnt != want {
				return nil, fmt.Errorf("hybrid: allgather counts diverge across ranks (slot %d: builder has %d, this rank has %d)",
					slot, cnt, want)
			}
		}
	}
	a.plan = plan
	if a.buf, err = c.segment(plan.total); err != nil {
		return nil, err
	}
	return a, nil
}

// Mine returns this rank's partition of the shared buffer — the
// "private data" each rank initializes independently (Fig. 4 lines
// 21-22). Writing here is writing the final result location: the hybrid
// scheme has no send buffer at all.
func (a *Allgatherer) Mine() mpi.Buf { return a.Block(a.ctx.comm.Rank()) }

// Block returns the partition contributed by a given comm rank (valid
// after Allgather returns on this rank).
func (a *Allgatherer) Block(rank int) mpi.Buf {
	slot := a.ctx.SlotOf(rank)
	return a.buf.Slice(a.plan.displs[slot], a.plan.counts[slot])
}

// Buffer returns the whole gathered result (node-major slot order; use
// Block for rank addressing under non-SMP placements).
func (a *Allgatherer) Buffer() mpi.Buf { return a.buf }

// Counts returns the per-slot byte counts (shared across all ranks;
// do not modify).
func (a *Allgatherer) Counts() []int { return a.plan.counts }

// Allgather runs the timed operation of Fig. 4 lines 23-39:
//
//	barrier; leaders: MPI_Allgatherv on the bridge; barrier
//
// with the configured sync flavor standing in for the barriers, and the
// single-node degenerate case (lines 29-30/37-38) collapsing to one
// synchronization that makes the node's single buffer consistent:
// nothing moves, but every rank reads its peers' partitions next.
func (a *Allgatherer) Allgather() error {
	if a.ctx.Nodes() == 1 {
		return a.ctx.epoch("allgather", toAll, 0, false, nil)
	}
	return a.ctx.epoch("allgather", toLeader, 0, false, a.exchange)
}

// exchange is the leaders' MPI_Allgatherv of whole node blocks, in
// place in the shared buffer.
func (a *Allgatherer) exchange(bridge *mpi.Comm, _ int) error {
	if bridge == nil {
		return nil
	}
	counts, displs := a.plan.nodeCounts, a.plan.nodeDispls
	if a.chunk > 0 && slices.Max(counts) > a.chunk {
		return allgathervChunked(bridge, a.buf, counts, displs, a.chunk)
	}
	return coll.AllgathervExplicit(bridge, a.buf, counts, displs)
}

// allgathervChunked pipelines the ring exchange: each node block is cut
// into chunks and the ring runs once per chunk. Because ranks advance
// to the next chunk round as soon as their own exchange completes, the
// rounds overlap around the ring, approaching the pipelined bound of
// [30] for blocks beyond ~256 KiB.
func allgathervChunked(bridge *mpi.Comm, buf mpi.Buf, counts, displs []int, chunk int) error {
	rounds := (slices.Max(counts) + chunk - 1) / chunk
	cc, dd := make([]int, len(counts)), make([]int, len(counts))
	for r := 0; r < rounds; r++ {
		for i, cnt := range counts {
			lo := min(r*chunk, cnt)
			cc[i] = min(lo+chunk, cnt) - lo
			dd[i] = displs[i] + lo
		}
		if err := coll.AllgathervExplicit(bridge, buf, cc, dd); err != nil {
			return fmt.Errorf("hybrid: chunked round %d: %w", r, err)
		}
	}
	return nil
}
