// Package sim provides the virtual-time cluster substrate used by the
// MPI-like runtime in internal/mpi.
//
// The reproduction target (Zhou, Gracia, Schneider, ICPP'19) was
// evaluated on a Cray XC40 and a NEC InfiniBand cluster. Neither
// machine — nor any MPI library — is available here, so the cluster is
// simulated: every MPI rank is a goroutine that owns a virtual clock,
// and every communication or memory-copy operation advances clocks
// through a LogGP-style cost model. Because clocks advance only
// through explicit, causal rules, the reported latencies are
// deterministic and independent of the host's scheduler, while data
// still really moves between ranks so correctness remains testable.
//
// The package's pieces:
//
//   - Time: an integer picosecond count, the unit of every clock and
//     cost. Integral arithmetic keeps simulations bit-reproducible.
//   - Topology: the machine layout as an ordered stack of nesting
//     levels (numa ⊂ socket ⊂ node ⊂ group), each partitioning the
//     ranks into contiguous, possibly irregular groups. Exactly one
//     level is "node", the shared-memory boundary. Hop classifies the
//     path between two ranks by their innermost common level.
//   - CostModel: per-hop-class alpha/beta pairs (with optional
//     per-level overrides), memory-copy costs, send/recv overheads and
//     the library tuning cutoffs of the two machine profiles
//     (HazelHenCray, VulcanOpenMPI) plus a small Laptop profile for
//     examples and tests.
//   - Tracer and the stats helpers for event capture.
//
// Topologies are immutable and interned by structural fingerprint, so
// sweeps that rebuild the same shape thousands of times share one
// canonical instance and every downstream geometry cache hits its
// pointer-equality fast path.
package sim
