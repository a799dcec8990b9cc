// Package spec is the declarative description of a simulator run — the
// single serializable surface the CLI (cmd/perf), the what-if daemon
// (cmd/serverd) and test harnesses all compile onto the sim/mpi/coll
// stack, so one Query evaluated anywhere is provably the same run.
//
// A Query names a machine profile, a topology (nodes x ppn shorthand,
// a uniform level stack or a per-node rank list), a collective, a
// message-size ladder, the execution engine, the rank-symmetry fold
// mode and the selection-engine tuning, whose allgather=hybrid runs the
// paper's Hy_Allgather in place of the pure MPI_Allgather. Queries are
// JSON-(de)serializable with strict decoding (unknown fields are
// rejected), validated and canonicalized into exactly one normal form,
// and carry a stable Fingerprint — the cache and request-coalescing key
// of the service layer.
//
// Two executors compile a Query onto the stack: Run builds the world
// and executes the collective at every ladder size, returning exact
// virtual times; Price consults only the selection engine's
// alpha-beta-gamma estimates, returning every candidate algorithm's
// price without simulating.
//
// The package also owns the textual tuning grammar
// ("policy=cost,allreduce=rabenseifner,...", cmd/perf's -tuning flag):
// ParseTuning parses it and Tuning.Spec renders it back canonically. A
// tuning reaches a run only through the world the run builds; the
// package reads no environment and installs no process-wide default.
package spec
