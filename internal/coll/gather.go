package coll

import (
	"fmt"

	"repro/internal/mpi"
)

// Gather collects per-rank blocks of `per` bytes at root (rank order in
// root's recv buffer). The algorithm is resolved by the selection
// engine: under the default table policy the binomial tree (what this
// entry point always ran), with the linear path available to the cost
// policy and Force overrides.
func Gather(c *mpi.Comm, send, recv mpi.Buf, per, root int) error {
	if err := checkRootArgs(c, root); err != nil {
		return err
	}
	run, err := dispatch[gatherFn](c, CollGather, envFor(c, per, 0), false)
	if err != nil {
		return err
	}
	return run(c, send, recv, per, root)
}

func checkRootArgs(c *mpi.Comm, root int) error {
	if c == nil {
		return fmt.Errorf("coll: nil communicator")
	}
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("coll: root %d out of range (size %d)", root, c.Size())
	}
	return nil
}

// GatherLinear has every non-root rank send its block straight to root.
// Real libraries use exactly this inside a node, where the "network" is
// the shared-memory transport and trees buy nothing — it is the
// aggregation phase of the paper's SMP-aware baseline (Fig. 3a).
func GatherLinear(c *mpi.Comm, send, recv mpi.Buf, per, root int) error {
	if err := checkRootArgs(c, root); err != nil {
		return err
	}
	if c.Rank() == root {
		if recv.Len() < per*c.Size() {
			return fmt.Errorf("coll: gather recv buffer %dB < %d x %dB", recv.Len(), c.Size(), per)
		}
		c.Proc().CopyLocal(recv.Slice(root*per, per), send.Slice(0, per), 1)
	}
	return gatherAtRoot(c, send.Slice(0, per), blocks{buf: recv, per: per}, root,
		family{name: "gather linear", tag: tagGather})
}

// GatherBinomial aggregates subtrees up a binomial tree: log2(n) rounds,
// interior nodes forwarding their accumulated range. Blocks travel in
// relative-rank order and are unrotated at the root (charged), as in
// MPICH. As there, a range is staged in place where it can be: a leaf
// sends straight from its send block, and root 0, whose relative order
// is the rank order, receives straight into recv. Interior ranks, and a
// root other than 0, stage in scratch. The copies into a range staged in
// place stay, self to self, so the charges and clocks are those of
// staging everything in scratch.
func GatherBinomial(c *mpi.Comm, send, recv mpi.Buf, per, root int) error {
	if err := checkRootArgs(c, root); err != nil {
		return err
	}
	n := c.Size()
	p := c.Proc()
	if c.Rank() == root && recv.Len() < per*n {
		return fmt.Errorf("coll: gather recv buffer %dB < %d x %dB", recv.Len(), n, per)
	}
	if n == 1 {
		p.CopyLocal(recv.Slice(root*per, per), send.Slice(0, per), 1)
		return nil
	}
	rel := (c.Rank() - root + n) % n

	// tmp holds the relative range [rel, rel+have).
	var tmp mpi.Buf
	switch span := subtreeSpan(rel, n); {
	case span == 1:
		tmp = send.Slice(0, per)
	case rel == 0 && root == 0:
		tmp = recv.Slice(0, n*per)
	default:
		tmp = p.World().NewBuf(span * per)
	}
	p.CopyLocal(tmp.Slice(0, per), send.Slice(0, per), 1)
	have := 1

	up := binomialParent(rel, n)
	for mask := 1; mask < up; mask <<= 1 {
		// Receive the child's range, if that child exists.
		childRel := rel + mask
		if childRel < n {
			cnt := min(subtreeSpan(childRel, n), mask)
			child := (childRel + root) % n
			if _, err := c.Recv(tmp.Slice(have*per, cnt*per), child, tagGather); err != nil {
				return fmt.Errorf("coll: gather binomial recv: %w", err)
			}
			have += cnt
		}
	}
	if rel != 0 {
		// Send my accumulated range to the parent and stop.
		parent := (rel - up + root) % n
		if err := c.Send(tmp.Slice(0, have*per), parent, tagGather); err != nil {
			return fmt.Errorf("coll: gather binomial send: %w", err)
		}
		return nil
	}

	// Unrotate relative blocks into comm rank order.
	for i := 0; i < n; i++ {
		p.CopyLocal(recv.Slice(((i+root)%n)*per, per), tmp.Slice(i*per, per), 1)
	}
	return nil
}

// subtreeSpan returns the number of relative ranks in the binomial
// subtree rooted at rel on an n-rank communicator.
func subtreeSpan(rel, n int) int {
	if rel == 0 {
		return n
	}
	// The subtree of rel covers [rel, rel + lowbit(rel)) clipped to n.
	span := rel & (-rel)
	if rel+span > n {
		span = n - rel
	}
	return span
}
