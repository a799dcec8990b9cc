package hybrid

import (
	"cmp"
	"fmt"

	"repro/internal/coll"
	"repro/internal/mpi"
)

// SyncMode selects how on-node ranks synchronize around the bridge
// exchange (paper Sect. 6 "Explicit synchronization").
type SyncMode int

const (
	// SyncBarrier is the paper's scheme: an MPI barrier over the
	// shared-memory communicator before and after the exchange.
	SyncBarrier SyncMode = iota
	// SyncP2P replaces each barrier with pairwise zero-byte flag
	// messages between children and the leader (the "light-weight
	// means").
	SyncP2P
	// SyncSharedFlags signals through per-rank epoch counters stored
	// in the shared segment itself ([8]); the cheapest flavor.
	SyncSharedFlags
)

// String names the sync mode.
func (s SyncMode) String() string {
	switch s {
	case SyncBarrier:
		return "barrier"
	case SyncP2P:
		return "p2p"
	case SyncSharedFlags:
		return "sharedflags"
	default:
		return fmt.Sprintf("SyncMode(%d)", int(s))
	}
}

// Ctx is one rank's handle on the hybrid MPI+MPI context built over a
// communicator: the shared-memory and bridge communicators plus the
// level-sorted global rank array that supports rank placements other
// than SMP-style (paper Sect. 6 "Rank placement"). It is a view of the
// multi-level composer with a one-level stack — the shared-memory level
// hosting the window — whose slot order and group tables (shared
// read-only by every member) are the context's geometry: slot s holds
// the comm rank stored at position s of every gathered buffer, groups
// appear in bridge order, ranks within a group in group-comm order.
//
// A rank's Ctx holds only the composer and its sync flavor: the
// communicators (comm, node, bridge) are the composer's, read through it.
type Ctx struct {
	comp *coll.Composer
	sync SyncMode
}

// Option configures a Ctx.
type Option func(*Ctx)

// WithSync selects the synchronization flavor (default SyncBarrier, as
// in the paper).
func WithSync(m SyncMode) Option { return func(c *Ctx) { c.sync = m } }

// New builds the hybrid context over a communicator: the two-level
// communicator split of Fig. 4 lines 2-10 plus the level-sorted rank
// array, all through the composer's derived geometry (nothing is
// exchanged: whichever member arrives first computes it, everyone
// shares it). Construction is untimed one-off setup.
func New(comm *mpi.Comm, opts ...Option) (*Ctx, error) {
	if comm == nil {
		return nil, fmt.Errorf("hybrid: New on nil communicator")
	}
	ctx, _, _ := mpi.SetupSlab[Ctx](comm, nil)
	for _, o := range opts {
		o(ctx)
	}
	// The shared window sits at the tuning's sharedlevel= level, the
	// node by default.
	level := cmp.Or(coll.TuningFor(comm).SharedLevel, "node")
	topo := comm.Proc().World().Topology()
	lvl, ok := topo.LevelIndex(level)
	if !ok {
		return nil, fmt.Errorf("hybrid: topology %s has no level %q", topo, level)
	}
	if lvl > topo.NodeLevel() {
		return nil, fmt.Errorf("hybrid: shared window cannot sit at level %q outside the node (no load/store reachability)", level)
	}

	comp, err := coll.NewComposer(comm, []int{lvl})
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	ctx.comp = comp
	return ctx, nil
}

// comm returns the communicator the context was built over.
func (c *Ctx) comm() *mpi.Comm { return c.comp.Comm() }

// node returns the shared-level communicator (per node by default).
func (c *Ctx) node() *mpi.Comm { return c.comp.Tier(0) }

// bridge returns the group leaders' communicator (nil on children).
func (c *Ctx) bridge() *mpi.Comm { return c.comp.Top() }

// IsLeader reports whether this rank is its group's leader.
func (c *Ctx) IsLeader() bool { return c.node().Rank() == 0 }

// Nodes returns the number of shared-level groups (nodes by default).
func (c *Ctx) Nodes() int { return c.comp.Groups(0) }

// NodeSizes returns ranks per group in bridge order (shared across all
// ranks; do not modify).
func (c *Ctx) NodeSizes() []int { return c.comp.GroupSizes(0) }

// SlotOf maps a comm rank to its slot in gathered buffers. Under
// SMP-style placement this is the identity; for other placements it
// realizes the node-sorted global rank array of Sect. 6.
func (c *Ctx) SlotOf(rank int) int { return c.comp.SlotOf(rank) }

// MyNodeIdx returns this rank's group position in bridge order.
func (c *Ctx) MyNodeIdx() int { return c.comp.MyGroup(0) }

// nodeSpan returns the first slot and the rank count of the group at
// bridge position n.
func (c *Ctx) nodeSpan(n int) (first, size int) {
	return c.comp.GroupFirsts(0)[n], c.comp.GroupSizes(0)[n]
}
