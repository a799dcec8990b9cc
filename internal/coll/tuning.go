package coll

import (
	"fmt"

	"repro/internal/mpi"
)

// Policy selects how the engine picks among the registered algorithms
// of a collective.
type Policy int

const (
	// PolicyTable replicates the MPICH/OpenMPI-style static cutoff
	// tables carried by the machine profile (sim.Tuning). It is the
	// default, and bit-identical to the selection the historical
	// hard-wired entry points performed.
	PolicyTable Policy = iota
	// PolicyCost consults the cost model: every applicable registered
	// algorithm is priced with its alpha-beta-gamma estimate at the
	// call's comm size, message size and hop class, and the cheapest
	// wins (ties break by registration order, deterministically).
	PolicyCost
	// PolicyMeasured serves selections from a measurement cache (the
	// internal/tune store, consulted through Tuning.Lookup): on a hit
	// the cached winner runs; on a miss the engine reports the point
	// through Tuning.OnMiss (so a background tuner can race the
	// candidates' virtual times) and falls back to the PolicyCost
	// choice, so calls never block on a measurement. With no Lookup
	// installed it degenerates to PolicyCost exactly.
	PolicyMeasured
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyTable:
		return "table"
	case PolicyCost:
		return "cost"
	case PolicyMeasured:
		return "measured"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Tuning configures the collective selection engine. The zero value is
// the default: table policy, no overrides, node-level hybrid windows.
// A call's tuning comes from its communicator: WithTuning attaches one
// to a handle, mpi.WithCollConfig to every handle of a world, and
// derived communicators inherit it. A communicator with neither runs
// the zero value.
//
// The textual key=value grammar (cmd/perf's -tuning flag) and the
// declarative form (a Query's tuning object) are owned by
// internal/spec: spec.ParseTuning parses the text, and spec.Tuning
// converts to this type.
type Tuning struct {
	Policy Policy
	// Force pins a collective to a named algorithm regardless of
	// policy. A name that is unknown or inapplicable at a call site
	// (e.g. recursive doubling on a non-power-of-two communicator)
	// falls back to the policy choice rather than failing the call.
	Force map[Collective]string
	// SharedLevel names the topology level the hybrid context's shared
	// window (and its sync domain) sits at: "node" (the paper's
	// scheme, the default when empty) or any declared level inside the
	// node ("socket", "numa"). Parsed from the sharedlevel= key of
	// the spec tuning grammar.
	SharedLevel string
	// Lookup is the PolicyMeasured cache probe: given a call's family
	// and selection environment it returns the measured winner's name,
	// or ok=false on a miss. internal/spec installs a closure over an
	// immutable tuning-store snapshot here, so every pick within one
	// Run resolves against the same store generation (bit-identical
	// reruns on a warm store). A name that is unknown or inapplicable
	// at the call site falls back to the policy path like Force does.
	// Nil means every lookup misses.
	Lookup func(Collective, Env) (string, bool)
	// OnMiss, when non-nil, is invoked under PolicyMeasured for every
	// Lookup miss before the cost fallback runs. It must not block:
	// internal/spec's tuner uses it to enqueue a background
	// measurement of the missed point (singleflight per key).
	OnMiss func(Collective, Env)
}

// WithTuning attaches a tuning configuration to a communicator handle
// and returns the same handle; derived communicators inherit it. All
// members must configure the same value (the usual MPI collective
// discipline).
func WithTuning(c *mpi.Comm, t Tuning) *mpi.Comm {
	c.SetCollConfig(t)
	return c
}

// TuningFor resolves the tuning in effect for calls on a communicator:
// the configuration attached to the handle (or inherited from its
// world), the zero Tuning (table policy) when there is none.
// internal/hybrid uses it to pick up SharedLevel.
func TuningFor(c *mpi.Comm) Tuning {
	t, _ := c.CollConfig().(Tuning)
	return t
}
