package coll

import (
	"fmt"

	"repro/internal/mpi"
)

// Hier is the SMP-aware (hierarchical) collective machinery the paper
// assumes for its pure-MPI baseline (Fig. 3a): a shared-memory
// communicator per node plus a bridge communicator over the node
// leaders [31, 34]. Every rank keeps a private copy of collective
// results — that per-rank copy, and the intra-node aggregation /
// broadcast phases that maintain it, are precisely what the hybrid
// approach removes.
//
// Hier is the thin two-level instantiation of the multi-level Composer:
// the stack holding only the node level, built by NewHier with its SMP
// check. Deeper machine hierarchies (socket ⊂ node ⊂ group) run
// through NewHierStack or NewComposer directly.
type Hier = Composer

// NewHier builds the two-level communicator structure. It requires
// SMP-style placement (each node's comm ranks contiguous), which is the
// paper's stated assumption (Sect. 4); construction is untimed setup.
func NewHier(c *mpi.Comm) (*Hier, error) {
	return NewHierStack(c, "node")
}

// NewHierStack builds the hierarchical machinery over an arbitrary
// stack of topology level names (innermost first, e.g. "socket",
// "node"). SMP-style placement is required at every level.
func NewHierStack(c *mpi.Comm, levels ...string) (*Hier, error) {
	if c == nil {
		return nil, fmt.Errorf("coll: NewHier on nil communicator")
	}
	comp, err := NewComposerNamed(c, levels...)
	if err != nil {
		return nil, err
	}
	if !comp.SMP() {
		return nil, fmt.Errorf("coll: NewHier needs SMP-style placement; level blocks not contiguous")
	}
	return comp, nil
}
