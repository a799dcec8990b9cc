// Package coll implements the classic MPI collective algorithms on top
// of the internal/mpi runtime: the building blocks real MPI libraries
// assemble (Thakur, Rabenseifner, Gropp [28]), plus the SMP-aware
// hierarchical variants the paper uses as its pure-MPI baseline.
//
// # Selection engine
//
// Every entry point (Allgather, Allgatherv, Allreduce, Reduce, Bcast,
// Barrier, Alltoall, Gather and Scan) resolves its algorithm through a
// registry: one entry per implemented algorithm, carrying an
// applicability predicate and an alpha-beta-gamma cost estimate at the
// call's communicator size, message size and hop class. Three policies select over the entries —
// PolicyTable replicates the machine profile's MPICH/OpenMPI-style
// cutoff tables (the default, bit-identical in virtual time to the
// historical hard-wired choices), PolicyCost prices every applicable
// candidate and picks the cheapest, and PolicyMeasured serves cached
// measured winners from a tuning store (internal/tune, raced by
// internal/spec's background tuner) and falls back to the cost choice
// while a point's measurement is pending. Wherever candidates are
// minimized over — PolicyCost prices, PolicyMeasured races — ties
// break by registration order: the first-registered of equal-cost
// candidates wins, deterministically. That ordering is part of the
// bit-identity contract (a tie that broke differently across two runs
// would change virtual times) and is pinned by an explicit test. A
// Tuning value (policy, forced algorithms, the measurement-cache
// hooks, the hybrid window level) comes from the world (mpi.Config's
// CollConfig) or the communicator handle (WithTuning) and is inherited
// by derived communicators; a communicator with neither runs the zero
// Tuning, the table policy. Nothing is process-wide. TUNING.md at the
// repository root documents the grammar and the measured policy's
// on-disk store format.
//
// # Hierarchical composition
//
// Composer is the recursive geometry engine behind the SMP-aware
// baselines: it builds a leader tree over any machine-topology level
// stack, derives the whole shape locally (nothing is exchanged; one
// member computes, all share), and composes per-tier algorithms through
// the registry. Hier is the thin
// node-level instantiation; MultiLeaderHier and hybrid.Ctx reuse the
// same geometry.
//
// # Nonblocking collectives
//
// Iallreduce compiles the underlying algorithm into an mpi.Sched —
// rounds of sends/receives executed by an asynchronous progress engine
// on its own virtual cursor, so callers overlap local compute between
// Start and Wait with deterministic timing.
package coll
