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
	ctx        *Ctx
	win        *mpi.Win
	buf        mpi.Buf // the whole shared result buffer (node's single copy)
	counts     []int   // bytes per rank, slot order
	displs     []int   // byte offset per slot
	nodeCounts []int   // bytes per node, bridge order
	nodeDispls []int
	chunk      int // >0: pipelined bridge exchange for large blocks ([30])
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

// agPlan is the slot-ordered allgather geometry, computed once by comm
// rank 0 and shared read-only by every member (the count vector must
// agree across members, as MPI_Allgatherv requires, so the leader's
// copy is everyone's copy).
type agPlan struct {
	uniform    int // >= 0: every count is this value (O(1) validation)
	total      int // sum of counts
	counts     []int
	displs     []int
	nodeCounts []int
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
	// the rank that holds it, not silently adopt rank 0's geometry).
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
	a := &Allgatherer{ctx: c}
	for _, o := range opts {
		o(a)
	}

	// Slot-ordered geometry (node-major layout), built once per
	// collective call and shared read-only through the world's setup
	// slot (mpi.SetupOnce) — no exchange runs at all: the plan is fully
	// determined by the context geometry and the (identical, per
	// MPI_Allgatherv semantics) member arguments, so whichever member
	// arrives first computes it for everyone.
	v, err := mpi.SetupOnce(c.comm, func() (any, error) {
		plan := &agPlan{uniform: -1, counts: make([]int, c.comm.Size())}
		for slot := range plan.counts {
			if counts != nil {
				plan.counts[slot] = counts[c.RankAt(slot)]
			} else {
				plan.counts[slot] = per
			}
		}
		if counts == nil {
			plan.uniform = per
		}
		plan.total = coll.Total(plan.counts)
		plan.displs = coll.Displs(plan.counts)
		plan.nodeCounts = make([]int, c.Nodes())
		plan.nodeDispls = make([]int, c.Nodes())
		for n := 0; n < c.Nodes(); n++ {
			first := c.nodeFirst[n]
			plan.nodeDispls[n] = plan.displs[first]
			for s := first; s < first+c.nodeSizes[n]; s++ {
				plan.nodeCounts[n] += plan.counts[s]
			}
		}
		return plan, nil
	})
	if err != nil {
		return nil, err
	}
	plan := v.(*agPlan)
	// Members must have passed the same geometry the plan was built
	// from; a divergent local vector is an application bug that must
	// fail loudly, not silently run with the builder's placement. The
	// uniform case compares one value; the irregular variant checks its
	// whole vector.
	if counts == nil {
		if plan.uniform != per {
			// Mixed constructors (a member passed an explicitly
			// uniform vector to the V variant) still agree when every
			// slot holds per; only then is the geometry identical.
			for slot, cnt := range plan.counts {
				if cnt != per {
					return nil, fmt.Errorf("hybrid: allgather counts diverge across ranks (slot %d: builder has %d, this rank has %d)",
						slot, cnt, per)
				}
			}
		}
	} else {
		for slot, cnt := range plan.counts {
			if want := counts[c.RankAt(slot)]; cnt != want {
				return nil, fmt.Errorf("hybrid: allgather counts diverge across ranks (slot %d: builder has %d, this rank has %d)",
					slot, cnt, want)
			}
		}
	}
	a.counts = plan.counts
	a.displs = plan.displs
	a.nodeCounts = plan.nodeCounts
	a.nodeDispls = plan.nodeDispls

	// Fig. 4 lines 13-16: only the leader asks for the contiguous
	// node memory; children query its base.
	total := plan.total
	win, err := mpi.WinAllocateLeader(c.node, total)
	if err != nil {
		return nil, err
	}
	a.win = win
	a.buf = win.Query(0).Slice(0, total)
	return a, nil
}

// Mine returns this rank's partition of the shared buffer — the
// "private data" each rank initializes independently (Fig. 4 lines
// 21-22). Writing here is writing the final result location: the hybrid
// scheme has no send buffer at all.
func (a *Allgatherer) Mine() mpi.Buf {
	slot := a.ctx.SlotOf(a.ctx.comm.Rank())
	return a.buf.Slice(a.displs[slot], a.counts[slot])
}

// Block returns the partition contributed by a given comm rank (valid
// after Allgather returns on this rank).
func (a *Allgatherer) Block(rank int) mpi.Buf {
	slot := a.ctx.SlotOf(rank)
	return a.buf.Slice(a.displs[slot], a.counts[slot])
}

// Buffer returns the whole gathered result (node-major slot order; use
// Block for rank addressing under non-SMP placements).
func (a *Allgatherer) Buffer() mpi.Buf { return a.buf }

// Counts returns the per-slot byte counts (shared across all ranks;
// do not modify).
func (a *Allgatherer) Counts() []int { return a.counts }

// Allgather runs the timed operation of Fig. 4 lines 23-39:
//
//	barrier; leaders: MPI_Allgatherv on the bridge; barrier
//
// with the single-node degenerate case collapsing to one barrier, and
// the configured sync flavor standing in for the barriers.
func (a *Allgatherer) Allgather() error {
	c := a.ctx
	multiNode := c.Nodes() > 1

	if !multiNode {
		// Fig. 4 lines 29-30/37-38: one barrier makes the node's
		// single buffer consistent; nothing moves. The pairwise
		// flavors are not symmetric, so they need both phases
		// (children must also wait before reading peers' slots).
		if c.sync == SyncBarrier {
			return c.Arrive()
		}
		if err := c.Arrive(); err != nil {
			return err
		}
		return c.Release()
	}

	// The leaders must wait until their children initialized all
	// partitions.
	if err := c.Arrive(); err != nil {
		return fmt.Errorf("hybrid: allgather arrive: %w", err)
	}
	if c.bridge != nil {
		var err error
		if a.chunk > 0 && slices.Max(a.nodeCounts) > a.chunk {
			err = allgathervChunked(c.bridge, a.buf, a.nodeCounts, a.nodeDispls, a.chunk)
		} else {
			err = coll.AllgathervExplicit(c.bridge, a.buf, a.nodeCounts, a.nodeDispls)
		}
		if err != nil {
			return fmt.Errorf("hybrid: allgather bridge exchange: %w", err)
		}
	}
	// Children wait until the leaders finished the exchange.
	if err := c.Release(); err != nil {
		return fmt.Errorf("hybrid: allgather release: %w", err)
	}
	return nil
}

// ReadFence separates one epoch's reads from the next epoch's writes.
//
// The paper's two synchronizations (Fig. 4) order on-node writes before
// the exchange and the exchange before on-node reads — but nothing
// orders one iteration's *reads* before the next iteration's *writes*
// to the same shared partition. An iterative caller that rewrites
// Mine() every round (SUMMA panels, BPMF sampling phases) must call
// ReadFence after it has finished reading Buffer()/Block() and before
// the next write, or peers may observe the next epoch's data early.
// One-shot callers (and the OSU-style latency loop, which never reads
// between operations) do not need it.
func (a *Allgatherer) ReadFence() error { return a.ctx.node.Barrier() }

// allgathervChunked pipelines the ring exchange: each node block is cut
// into chunks and the ring runs once per chunk. Because ranks advance
// to the next chunk round as soon as their own exchange completes, the
// rounds overlap around the ring, approaching the pipelined bound of
// [30] for blocks beyond ~256 KiB.
func allgathervChunked(bridge *mpi.Comm, buf mpi.Buf, counts, displs []int, chunk int) error {
	maxCnt := slices.Max(counts)
	rounds := (maxCnt + chunk - 1) / chunk
	for r := 0; r < rounds; r++ {
		cc := make([]int, len(counts))
		dd := make([]int, len(counts))
		for i := range counts {
			lo := r * chunk
			hi := lo + chunk
			if lo > counts[i] {
				lo = counts[i]
			}
			if hi > counts[i] {
				hi = counts[i]
			}
			cc[i] = hi - lo
			dd[i] = displs[i] + lo
		}
		if err := coll.AllgathervExplicit(bridge, buf, cc, dd); err != nil {
			return fmt.Errorf("hybrid: chunked round %d: %w", r, err)
		}
	}
	return nil
}
