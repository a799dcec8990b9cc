package hybrid

import (
	"fmt"

	"repro/internal/mpi"
)

// The segment-and-epoch core. Every hybrid collective is the paper's
// one protocol (Fig. 4 lines 23-39, Fig. 6) over leader-owned shared
// segments: on-node ranks write by load/store, an arrival makes those
// writes visible to whoever reads them next, the leaders move bytes
// between nodes on the bridge, and a release tells the node the segment
// holds the result. The collectives differ only in which writes the
// arrival must order and in what the leaders do: epoch's two arguments.

// segment allocates one leader-owned window of n bytes on the shared
// level (Fig. 4 lines 13-16: only the leader asks for the contiguous
// memory, children query its base) and returns the node's single copy.
func (c *Ctx) segment(n int) (mpi.Buf, error) {
	win, err := mpi.WinAllocateLeader(c.node(), n)
	if err != nil {
		return mpi.Buf{}, err
	}
	return win.Query(0).Slice(0, n), nil
}

// collective is what every hybrid collective embeds: the context its
// segments live on, and the fence between two of its epochs.
type collective struct{ ctx *Ctx }

// ReadFence separates one epoch's reads from the next epoch's writes.
//
// The paper's two synchronizations (Fig. 4) order on-node writes before
// the exchange and the exchange before on-node reads — but nothing
// orders one iteration's *reads* before the next iteration's *writes*
// to the same shared segment. An iterative caller that rewrites its
// partition every round (SUMMA panels, BPMF sampling phases, FT's
// transposes) must call ReadFence after it has finished reading the
// result and before the next write, or peers may observe the next
// epoch's data early. One-shot callers (and the OSU-style latency loop,
// which never reads between operations) do not need it.
func (k collective) ReadFence() error { return k.ctx.node().Barrier() }

// visibility names which on-node writes an epoch's arrival must make
// visible, and to whom, before its phase may read the segment.
type visibility int

const (
	// toLeader: every on-node rank wrote; the leader reads (allgather,
	// allreduce). One arrival.
	toLeader visibility = iota
	// toAll: every on-node rank wrote; every on-node rank reads its
	// peers' writes (the single-node allgather, alltoall's pull). One
	// barrier does that, but the pairwise flavors are not symmetric —
	// their arrival tells only the leader — so they need both phases:
	// the leader's release is what tells a child its peers have written.
	toAll
	// fromRoot: only the root wrote; its leader reads (bcast).
	// A root that is the leader needs nothing; a child root hands off
	// with one flag.
	fromRoot
)

// epoch runs one timed hybrid collective: resolve the root, make the
// named writes visible, run the phase between the two synchronizations,
// release. Rooted collectives pass their root (a comm rank, validated
// here); the others pass rooted == false and their phase sees rootNode
// -1. phase runs on every on-node rank; bridge is the leaders'
// communicator where this rank has inter-node work — nil on children,
// and on everyone when there is one node. A nil phase means nothing
// moves and nothing is left to release. phase is a func value so each
// collective closes over its own buffers; it must not escape, or every
// call on every rank allocates (TestWarmEpochAllocationPins).
func (c *Ctx) epoch(name string, vis visibility, root int, rooted bool, phase func(bridge *mpi.Comm, rootNode int) error) error {
	rootNode := -1
	if rooted {
		if root < 0 || root >= c.comm().Size() {
			return fmt.Errorf("hybrid: %s root %d out of range (size %d)", name, root, c.comm().Size())
		}
		rootNode = c.comp.GroupOfSlot(0, c.SlotOf(root))
	}

	var err error
	switch vis {
	case toLeader:
		err = c.Arrive()
	case toAll:
		if err = c.Arrive(); err == nil && c.sync != SyncBarrier {
			err = c.Release()
		}
	case fromRoot:
		err = c.handOff(root, rootNode)
	}
	if err != nil {
		return fmt.Errorf("hybrid: %s arrival: %w", name, err)
	}
	if phase == nil {
		return nil
	}

	bridge := c.bridge()
	if c.Nodes() == 1 {
		bridge = nil
	}
	if err := phase(bridge, rootNode); err != nil {
		return fmt.Errorf("hybrid: %s bridge phase: %w", name, err)
	}
	// Children wait until the leaders finished (second barrier of Fig. 4,
	// the single one of Fig. 6).
	if err := c.Release(); err != nil {
		return fmt.Errorf("hybrid: %s release: %w", name, err)
	}
	return nil
}

// handOff orders a child root's write before its leader's bridge send.
// A single zero-byte flag message from root to leader carries exactly
// that ordering (the "light-weight means" of Sect. 6) and involves only
// the two ranks, so the rest of the node keeps pipelining. With the
// paper's root == leader setup this phase vanishes.
func (c *Ctx) handOff(root, rootNode int) error {
	first, _ := c.nodeSpan(rootNode)
	local := c.SlotOf(root) - first // the root's rank on its node
	if local == 0 || c.MyNodeIdx() != rootNode {
		return nil
	}
	switch {
	case c.comm().Rank() == root:
		return c.node().SendFlag(0, tagHybridFlag)
	case c.IsLeader():
		return c.node().RecvFlag(local, tagHybridFlag)
	}
	return nil
}
