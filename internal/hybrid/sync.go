package hybrid

import (
	"fmt"

	"repro/internal/sim"
)

// Tag for p2p flag messages (inside the runtime-internal tag space but
// distinct from the barrier tag).
const tagHybridFlag = 1<<24 + 7

// Arrive is the pre-exchange synchronization: the leader must not start
// the bridge exchange until every on-node rank has finished writing its
// partition of the shared buffer (first barrier of Fig. 4).
func (c *Ctx) Arrive() error {
	switch c.sync {
	case SyncBarrier:
		return c.node().Barrier()
	case SyncP2P:
		return c.arriveP2P()
	case SyncSharedFlags:
		return c.arriveFlags()
	default:
		return fmt.Errorf("hybrid: unknown sync mode %v", c.sync)
	}
}

// Release is the post-exchange synchronization: children must not read
// the gathered result until the leader's exchange completed (second
// barrier of Fig. 4 / the single barrier of Fig. 6).
func (c *Ctx) Release() error {
	switch c.sync {
	case SyncBarrier:
		return c.node().Barrier()
	case SyncP2P:
		return c.releaseP2P()
	case SyncSharedFlags:
		return c.releaseFlags()
	default:
		return fmt.Errorf("hybrid: unknown sync mode %v", c.sync)
	}
}

// arriveP2P: every child signals the leader with a shared-memory flag
// (the paper's "pairs of MPI point-to-point communications", realized
// through the shm flag path).
func (c *Ctx) arriveP2P() error {
	node := c.node()
	if node.Rank() != 0 {
		return node.SendFlag(0, tagHybridFlag)
	}
	for r := 1; r < node.Size(); r++ {
		if err := node.RecvFlag(r, tagHybridFlag); err != nil {
			return err
		}
	}
	return nil
}

// releaseP2P: the leader signals every child.
func (c *Ctx) releaseP2P() error {
	node := c.node()
	if node.Rank() == 0 {
		for r := 1; r < node.Size(); r++ {
			if err := node.SendFlag(r, tagHybridFlag); err != nil {
				return err
			}
		}
		return nil
	}
	return node.RecvFlag(0, tagHybridFlag)
}

// Shared-flag synchronization ([8]): each rank owns an epoch counter in
// the shared segment. Arrival: every child bumps its counter (one store)
// and the leader spins until all counters reach the epoch. Release: the
// leader bumps a release counter, children spin on it. In virtual time,
// a store costs MemAlpha and the spinner leaves as soon as the last
// store lands plus one cache-line read per flag.
func (c *Ctx) arriveFlags() error {
	node := c.node()
	p := node.Proc()
	m := p.Model()
	// Children: one flag store each.
	if node.Rank() != 0 {
		p.Elapse(m.MemAlpha)
		c.fuseClocks()
		return nil
	}
	// Leader: wait for the latest child store, then pay one
	// cache-line load per flag (a quarter of a full copy-initiation,
	// since the line is hot once the child's store arrives).
	p.AwaitTime(c.fuseClocks())
	p.Elapse(sim.Time(node.Size()-1) * m.MemAlpha / 4)
	return nil
}

func (c *Ctx) releaseFlags() error {
	node := c.node()
	p := node.Proc()
	m := p.Model()
	if node.Rank() == 0 {
		p.Elapse(m.MemAlpha) // release-flag store
		c.fuseClocks()
		return nil
	}
	p.AwaitTime(c.fuseClocks())
	p.Elapse(m.MemAlpha) // flag read observing the new epoch
	return nil
}

// fuseClocks exchanges virtual clocks through the untimed rendezvous
// and returns the latest; the *timed* cost is charged explicitly by the
// callers above. The signaling side(s) publish their clock and ignore
// the result, the waiting side collects it; both funnel through one
// FuseClocks so every member participates exactly once per phase.
func (c *Ctx) fuseClocks() sim.Time {
	node := c.node()
	return node.FuseClocks(node.Proc().Clock())
}
