package mpi

import (
	"errors"
	"fmt"
)

// Win is an MPI-3 shared-memory window (MPI_Win_allocate_shared). All
// ranks of a shared-memory communicator contribute a (possibly zero)
// number of bytes to one contiguous per-node segment; any member can
// obtain a direct view of any other member's contribution
// (MPI_Win_shared_query) and access it by load/store.
//
// In the paper's allgather (Fig. 4) only the node leader contributes a
// non-zero size and every child queries the leader's base pointer —
// exactly the pattern WinAllocateShared + Query support here.
//
// A rank's Win holds only its communicator and the plan every member
// shares; views are read from the plan.
type Win struct {
	comm *Comm
	plan *winPlan
}

// WinAllocateShared collectively allocates a shared segment over a
// shared-memory communicator; mySize is this rank's contribution in
// bytes. All members must be on the same node. Like communicator
// construction, allocation is an untimed one-off (paper Sect. 4.1:
// "the allocation of the shared-memory segment [is a] one-off").
func WinAllocateShared(c *Comm, mySize int) (*Win, error) {
	if c == nil {
		return nil, fmt.Errorf("mpi: WinAllocateShared on nil communicator")
	}
	if mySize < 0 {
		return nil, fmt.Errorf("mpi: negative window size %d", mySize)
	}
	if !c.cx.oneNode {
		return nil, errWinSpansNodes
	}

	// One round: the member that completes the sizes exchange lays out
	// and allocates the node segment, and everyone adopts that one plan —
	// sharing the backing storage is what makes the hybrid collectives
	// single-copy-per-node by construction.
	out := c.exchange(mySize, func(vals []any) any {
		plan := &winPlan{offs: make([]int, len(vals)), sizes: make([]int, len(vals))}
		for r, v := range vals {
			plan.sizes[r] = v.(int)
			plan.offs[r] = plan.total
			plan.total += plan.sizes[r]
		}
		plan.base = c.p.world.NewBuf(plan.total)
		return plan
	})
	plan := out.(*winPlan)
	win, _, _ := SetupSlab[Win](c, nil)
	*win = Win{comm: c, plan: plan}
	return win, nil
}

// winPlan is the shared state of a window: the node segment plus the
// offset/size tables every member adopts. The leader pattern needs no
// tables — rank 0 holds the whole segment, everyone else an empty view
// at its end — so its plan leaves them nil and keeps only total, which
// also validates that members passed the same size (or whichever member
// built the plan would silently decide the geometry).
type winPlan struct {
	total int
	base  Buf
	offs  []int // comm rank -> offset into base (nil: the leader pattern)
	sizes []int // comm rank -> contributed bytes (nil: the leader pattern)
}

// WinAllocateLeader allocates a shared window in the paper's dominant
// pattern: comm rank 0 contributes total bytes, every other member
// zero. The geometry is fully determined by (comm size, total), so
// unlike the general WinAllocateShared no sizes exchange runs: one
// member allocates the segment and publishes it through the
// communicator's setup slot (SetupSlab), and everyone else adopts it.
// Semantically identical to every member calling WinAllocateShared
// with mySize = total on rank 0 and 0 elsewhere.
func WinAllocateLeader(c *Comm, total int) (*Win, error) {
	if c == nil {
		return nil, fmt.Errorf("mpi: WinAllocateLeader on nil communicator")
	}
	if total < 0 {
		return nil, fmt.Errorf("mpi: negative window size %d", total)
	}
	if !c.cx.oneNode {
		return nil, errWinSpansNodes
	}
	win, v, err := SetupSlab[Win](c, func() (any, error) {
		return &winPlan{total: total, base: c.p.world.NewBuf(total)}, nil
	})
	if err != nil {
		return nil, err
	}
	plan := v.(*winPlan)
	// Divergent sizes are an application bug that must fail loudly on
	// the rank that holds the odd value, not silently adopt whichever
	// member reached the setup slot first.
	if plan.total != total {
		return nil, fmt.Errorf("mpi: WinAllocateLeader sizes diverge across ranks (builder has %d, this rank has %d)",
			plan.total, total)
	}
	*win = Win{comm: c, plan: plan}
	return win, nil
}

// errWinSpansNodes refuses a window whose members do not share a node
// (load/store reachability).
var errWinSpansNodes = errors.New("mpi: shared window communicator spans more than one node")

// Mine returns this rank's contributed segment.
func (w *Win) Mine() Buf { return w.Query(w.comm.Rank()) }

// Query returns the segment contributed by a comm rank
// (MPI_Win_shared_query).
func (w *Win) Query(rank int) Buf {
	p := w.plan
	if p.offs == nil { // the leader pattern
		if rank == 0 {
			return p.base.Slice(0, p.total)
		}
		return p.base.Slice(p.total, 0)
	}
	return p.base.Slice(p.offs[rank], p.sizes[rank])
}

// Whole returns the entire contiguous node segment starting at the
// lowest rank's base — what the paper's children obtain by querying the
// leader.
func (w *Win) Whole() Buf { return w.plan.base }
