package coll

import (
	"repro/internal/sim"
)

// This file decides, ahead of world construction, whether a given
// workload may run under the mpi package's rank-symmetry folding
// (mpi.Config.FoldUnit): the caller names the collective it is about to run
// and the helpers replicate the selection engine's algorithm pick for
// the cross-unit exchange, then consult the registry's fold metadata
// (entry.foldable). Folding is a property of the algorithm
// that actually crosses fold-unit boundaries, not of the collective
// family — a hierarchical allgather folds exactly when its top
// (leader-bridge) exchange folds, because every other phase stays
// inside one unit.
//
// Both helpers are conservative: they return 0 (folding disabled)
// unless the topology is uniform at every level, the total size and
// the unit are powers of two, and the picked algorithm carries the
// foldable mark. A 0 from here means "run unfolded", never an error.

// foldableUnit applies the topology-side fold preconditions shared by
// every workload: a uniform (regular) topology with power-of-two total
// size and power-of-two unit, and more than one unit (folding a
// single-unit topology is the identity, so it reports 0).
func foldableUnit(topo *sim.Topology) int {
	if topo == nil {
		return 0
	}
	u := topo.FoldUnit()
	size := topo.Size()
	if u <= 0 || u >= size || size%u != 0 || !isPow2(size) || !isPow2(u) {
		return 0
	}
	return u
}

// HierAllgatherFoldUnit reports the fold unit to set as mpi.Config.FoldUnit
// for a size-only hierarchical allgather (Hier.Allgather /
// Composer.Allgather with per bytes per rank) on the given topology,
// or 0 when folding must stay disabled. The composed allgather's
// intra-unit phases (linear gathers, down-phase broadcasts) never
// cross a fold-unit boundary; only the top exchange between the
// outermost leaders does, so the decision replicates the selection
// engine's in-place pick for that exchange — the leader communicator's
// size is the number of outermost groups, its block is one whole
// group's aggregate — and requires the chosen algorithm to be
// foldable.
func HierAllgatherFoldUnit(model *sim.CostModel, topo *sim.Topology, per int, tun Tuning) int {
	u := foldableUnit(topo)
	if u == 0 || model == nil {
		return 0
	}
	// The outermost leaders always span units, so the bridge exchange
	// prices at the network hop class.
	env := Env{Size: topo.Size() / u, Bytes: u * per, Model: model, Hop: sim.HopNet}
	en, err := pick(CollAllgather, env, tun, true)
	if err != nil || !en.foldable {
		return 0
	}
	return u
}

// AllreduceFoldUnit reports the fold unit for a size-only flat
// Allreduce over the whole topology (bytes total payload, count
// elements), or 0 when folding must stay disabled. The flat algorithm
// itself crosses unit boundaries, so the pick at the full
// communicator size must be foldable.
func AllreduceFoldUnit(model *sim.CostModel, topo *sim.Topology, bytes, count int, tun Tuning) int {
	u := foldableUnit(topo)
	if u == 0 || model == nil {
		return 0
	}
	env := Env{Size: topo.Size(), Bytes: bytes, Count: count, Model: model, Hop: sim.HopNet}
	en, err := pick(CollAllreduce, env, tun, false)
	if err != nil || !en.foldable {
		return 0
	}
	return u
}
