package coll

import (
	"fmt"
	"slices"

	"repro/internal/mpi"
)

// MultiLeaderHier implements the multi-leader allgather of Kandalla et
// al. [14], the related-work design the paper positions itself against:
// instead of funneling a node's traffic through one leader, each node's
// ranks split into L contiguous groups, each with its own leader; the L
// disjoint bridge communicators exchange concurrently, spreading the
// aggregation and broadcast load over L paths.
//
// It exists as an ablation baseline (see cmd/ablations): the paper's
// single-copy hybrid scheme removes the aggregation/broadcast phases
// altogether, while multi-leader only parallelizes them. Uniform node
// population and SMP placement are required (it is a regular-cluster
// technique).
type MultiLeaderHier struct {
	comm    *mpi.Comm
	node    *mpi.Comm // all ranks of my physical node
	group   *mpi.Comm // my leader group within the node
	bridge  *mpi.Comm // group-g leaders across nodes (nil on children)
	leaders *mpi.Comm // this node's L group leaders (nil on children)

	nLeaders int
	nodes    int
	ppn      int
	myNode   int
	myGroup  int
}

// NewMultiLeaderHier builds the structure with nLeaders groups per node
// (clamped to the node size). The node shape is the composer's derived
// geometry — the same helper Hier and the hybrid context build on —
// rather than a bespoke exchange.
func NewMultiLeaderHier(c *mpi.Comm, nLeaders int) (*MultiLeaderHier, error) {
	if c == nil {
		return nil, fmt.Errorf("coll: NewMultiLeaderHier on nil communicator")
	}
	if nLeaders < 1 {
		return nil, fmt.Errorf("coll: need at least one leader, got %d", nLeaders)
	}
	comp, err := NewComposerNamed(c, "node")
	if err != nil {
		return nil, err
	}
	node := comp.Tier(0)

	// Validate identically on all ranks (every rank holds the same
	// published shape, so every rank fails the same way).
	if sizes := comp.GroupSizes(0); slices.Min(sizes) != slices.Max(sizes) {
		return nil, fmt.Errorf("coll: multi-leader hierarchy needs uniform node population")
	}
	if !comp.SMP() {
		return nil, fmt.Errorf("coll: multi-leader hierarchy needs SMP-style placement")
	}
	ppn := node.Size()

	L := nLeaders
	if L > ppn {
		L = ppn
	}
	myGroup := groupOf(node.Rank(), ppn, L)
	group, err := node.Split(myGroup, node.Rank())
	if err != nil {
		return nil, err
	}
	bridgeColor := mpi.Undefined
	if group.Rank() == 0 {
		bridgeColor = myGroup
	}
	bridge, err := c.Split(bridgeColor, c.Rank())
	if err != nil {
		return nil, err
	}
	leadersColor := mpi.Undefined
	if group.Rank() == 0 {
		leadersColor = 0
	}
	leaders, err := node.Split(leadersColor, node.Rank())
	if err != nil {
		return nil, err
	}

	return &MultiLeaderHier{
		comm:     c,
		node:     node,
		group:    group,
		bridge:   bridge,
		leaders:  leaders,
		nLeaders: L,
		nodes:    comp.Groups(0),
		ppn:      ppn,
		myNode:   comp.MyGroup(0),
		myGroup:  myGroup,
	}, nil
}

// groupOf maps a local rank to its leader-group index under the
// contiguous chunk split.
func groupOf(local, nodeSize, groups int) int {
	base := nodeSize / groups
	extra := nodeSize % groups
	cut := extra * (base + 1)
	if local < cut {
		return local / (base + 1)
	}
	return extra + (local-cut)/base
}

// groupBounds returns the local-rank range of group g.
func groupBounds(nodeSize, groups, g int) (lo, hi int) {
	base := nodeSize / groups
	extra := nodeSize % groups
	lo = g*base + min(g, extra)
	hi = lo + base
	if g < extra {
		hi++
	}
	return lo, hi
}

// Allgather runs the multi-leader allgather:
//  1. each group gathers its members' blocks at its group leader
//     (L concurrent gathers per node),
//  2. each of the L bridge communicators exchanges its group's slice
//     of every node concurrently,
//  3. the node's L leaders recombine so each holds the full result,
//  4. each leader broadcasts the result to its group.
func (m *MultiLeaderHier) Allgather(send, recv mpi.Buf, per int) error {
	if err := checkAllgatherArgs(m.comm, send, recv, per); err != nil {
		return err
	}
	total := m.nodes * m.ppn * per

	// Phase 1: group gather, placed at final offsets.
	gLo, gHi := groupBounds(m.ppn, m.nLeaders, m.myGroup)
	groupOff := (m.myNode*m.ppn + gLo) * per
	if err := GatherLinear(m.group, send.Slice(0, per), recv.Slice(groupOff, (gHi-gLo)*per), per, 0); err != nil {
		return fmt.Errorf("coll: multi-leader gather phase: %w", err)
	}

	// Phase 2: concurrent bridge exchanges over strided slices.
	if m.bridge != nil && m.bridge.Size() > 1 {
		counts := make([]int, m.bridge.Size())
		displs := make([]int, m.bridge.Size())
		for n := 0; n < m.nodes; n++ {
			counts[n] = (gHi - gLo) * per
			displs[n] = (n*m.ppn + gLo) * per
		}
		if err := AllgathervExplicit(m.bridge, recv, counts, displs); err != nil {
			return fmt.Errorf("coll: multi-leader bridge phase: %w", err)
		}
	}

	// Phase 3: leaders recombine their group stripes, one exchange
	// per node block so slices stay exact.
	if m.leaders != nil && m.leaders.Size() > 1 {
		for n := 0; n < m.nodes; n++ {
			cc := make([]int, m.leaders.Size())
			dd := make([]int, m.leaders.Size())
			for g := 0; g < m.leaders.Size(); g++ {
				lo, hi := groupBounds(m.ppn, m.nLeaders, g)
				cc[g] = (hi - lo) * per
				dd[g] = (n*m.ppn + lo) * per
			}
			if err := AllgathervExplicit(m.leaders, recv, cc, dd); err != nil {
				return fmt.Errorf("coll: multi-leader recombine node %d: %w", n, err)
			}
		}
	}

	// Phase 4: leaders fan out the full result within their groups.
	if err := BcastBinomial(m.group, recv.Slice(0, total), 0); err != nil {
		return fmt.Errorf("coll: multi-leader bcast phase: %w", err)
	}
	return nil
}
