// Package hybrid implements the paper's contribution: MPI collective
// operations for the hybrid MPI+MPI programming model. Each node keeps
// exactly one copy of replicated data in an MPI-3 shared-memory
// window; only the per-node leader takes part in the inter-node
// exchange over the bridge communicator; the other on-node ranks
// ("children") access the shared segment directly and synchronize with
// the leader around the exchange (Figs. 4 and 6 of the paper).
//
// A Ctx holds the communicator pair (shared-memory group plus bridge)
// and the synchronization mode; NewAllgatherer, NewBcaster and
// NewAllreducer build the paper's Hy_* collectives on top of it, and
// NewAlltoaller carries the scheme over to the complete exchange, a
// measured negative result on large blocks (EXPERIMENTS.md). Each is an
// instance of the one protocol in epoch.go (DESIGN.md, "Hybrid
// collectives"). SyncMode selects how children order themselves around
// the leader's exchange: the paper's barrier pair, or the lighter flag
// and epoch schemes of Sect. 6.
//
// With a multi-level topology the shared window (and its sync domain)
// can sit at any shared-memory level: the paper's node scheme is the
// default, a socket- or numa-level window turns every socket/numa
// leader into a bridge participant (more exchange parallelism, smaller
// windows). The level is coll.Tuning's SharedLevel, attached to the
// world (mpi.WithCollConfig) or the communicator (coll.WithTuning) like
// any tuning (see TUNING.md at the repository root).
package hybrid
