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
// the stack holding only the node level. Deeper machine hierarchies
// (socket ⊂ node ⊂ group) run through NewHierStack or NewComposer
// directly. A *Hier is its *Composer under another method set, so the
// view costs no storage.
type Hier Composer

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
	return (*Hier)(comp), nil
}

// Composer exposes the underlying multi-level composer.
func (h *Hier) Composer() *Composer { return (*Composer)(h) }

// Allgather is the paper's pure-MPI baseline allgather (Fig. 3a),
// generalized to the composed leader tree:
//  1. aggregate each group's blocks at its leader (shared-memory
//     transport),
//  2. exchange aggregated blocks between the outermost leaders
//     (MPI_Allgather / MPI_Allgatherv on the bridge),
//  3. broadcast the full result down the tree, giving each rank its
//     own private copy.
func (h *Hier) Allgather(send, recv mpi.Buf, per int) error {
	return h.Composer().Allgather(send, recv, per)
}

// Bcast is the SMP-aware broadcast baseline: the root hands the message
// up its leader chain, leaders broadcast over the bridge, and every
// leader fans out within its group — so every rank again holds a
// private copy.
func (h *Hier) Bcast(buf mpi.Buf, root int) error {
	return h.Composer().Bcast(buf, root)
}
