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
	plan  *agPlan // block size and node blocks, shared by every member
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
// The geometry is synthesized from the context's group tables: no
// member materializes a per-rank count vector, and nothing is
// exchanged — the plan is built once per collective call through the
// world's setup slot.
func (c *Ctx) NewAllgatherer(per int, opts ...AllgatherOption) (*Allgatherer, error) {
	if per < 0 {
		return nil, fmt.Errorf("hybrid: negative block size %d", per)
	}
	a, v, err := mpi.SetupSlab[Allgatherer](c.comm(), func() (any, error) {
		plan := &agPlan{per: per, nodeCounts: make([]int, c.Nodes()), nodeDispls: make([]int, c.Nodes())}
		for n := range plan.nodeCounts {
			first, size := c.nodeSpan(n)
			plan.nodeDispls[n], plan.nodeCounts[n] = first*per, size*per
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
	// Members must have passed the block size the plan was built from;
	// a divergent one is an application bug that must fail loudly, not
	// silently run with the builder's placement.
	if plan.per != per {
		return nil, fmt.Errorf("hybrid: allgather block sizes diverge across ranks (builder has %d, this rank has %d)",
			plan.per, per)
	}
	a.plan = plan
	if a.buf, err = c.segment(per * c.comm().Size()); err != nil {
		return nil, err
	}
	return a, nil
}

// agPlan is the slot-ordered allgather geometry, computed once by
// whichever member reaches the setup slot first and shared read-only by
// every member (the block size must agree across members, so the
// builder's copy is everyone's copy).
type agPlan struct {
	per        int   // bytes per rank
	nodeCounts []int // bytes per node, bridge order
	nodeDispls []int
}

// Mine returns this rank's partition of the shared buffer — the
// "private data" each rank initializes independently (Fig. 4 lines
// 21-22). Writing here is writing the final result location: the hybrid
// scheme has no send buffer at all.
func (a *Allgatherer) Mine() mpi.Buf { return a.Block(a.ctx.comm().Rank()) }

// Block returns the partition contributed by a given comm rank (valid
// after Allgather returns on this rank).
func (a *Allgatherer) Block(rank int) mpi.Buf {
	return a.buf.Slice(a.ctx.SlotOf(rank)*a.plan.per, a.plan.per)
}

// Buffer returns the whole gathered result (node-major slot order; use
// Block for rank addressing under non-SMP placements).
func (a *Allgatherer) Buffer() mpi.Buf { return a.buf }

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
