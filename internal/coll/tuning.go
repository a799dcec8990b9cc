package coll

import (
	"fmt"
	"sync/atomic"

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
//
// The textual key=value grammar historically parsed here (the
// REPRO_COLL_TUNING environment variable and the -tuning flags) is
// owned by internal/spec since the Spec API redesign: spec.ParseTuning
// parses it, spec.Tuning round-trips it, and a command that calls
// spec.InstallEnvTuning() gets the environment compatibility shim that
// feeds SetDefaultTuning (importing internal/spec installs nothing).
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

// defaultTun holds the process-wide default tuning (nil = zero Tuning).
var defaultTun atomic.Pointer[Tuning]

// SetDefaultTuning installs the process-wide default tuning returned by
// DefaultTuning — the fallback for every communicator with no attached
// configuration. internal/spec calls it from its REPRO_COLL_TUNING
// compatibility shim; tests and harnesses may call it directly. The
// value is copied.
func SetDefaultTuning(t Tuning) { defaultTun.Store(&t) }

// DefaultTuning returns the process-wide default tuning: the zero
// Tuning unless SetDefaultTuning installed another (internal/spec does
// so from REPRO_COLL_TUNING when that variable is set).
func DefaultTuning() Tuning {
	if t := defaultTun.Load(); t != nil {
		return *t
	}
	return Tuning{}
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
// the handle's attached configuration if any, the process default
// otherwise. internal/hybrid uses it to pick up SharedLevel.
func TuningFor(c *mpi.Comm) Tuning { return tuningOf(c) }

// tuningOf resolves the tuning for a call on the communicator: the
// handle's attached configuration if any, the process default
// otherwise.
func tuningOf(c *mpi.Comm) Tuning {
	switch t := c.CollConfig().(type) {
	case Tuning:
		return t
	case *Tuning:
		if t != nil {
			return *t
		}
	}
	return DefaultTuning()
}
