package mpi

import (
	"errors"
	"fmt"
)

// Rank-symmetry folding. On a homogeneous topology whose every level
// has uniform group sizes, shifting all ranks by the topology's fold
// unit u (sim.Topology.FoldUnit) maps the machine onto itself. A
// size-only workload whose communication pattern is covariant under
// that shift — ring and recursive-doubling exchanges, dissemination
// barriers, the hierarchical collectives built from them — makes rank
// r+ku behave exactly like rank r, just translated: same operation
// sequence, same costs, same virtual timestamps. Folding exploits
// this: only the u class representatives (ranks 0..u-1) execute; every
// other rank's Proc aliases its representative's, so replica clocks
// need no copying at all, and a 1,048,576-rank world runs (and
// allocates rank state for) only u ranks.
//
// Messages a representative sends across the unit boundary (dst >= u)
// stand for the whole class of translated sends. The matcher routes
// them to the destination's class representative and matches by
// (crossedness, source class, tag) instead of exact source — see
// matcher.accepts in p2p.go for the pairing rule and request.go for
// where replica-destination receives are posted. Costs stay exact:
// each message keeps its original (src, dst) pair, and hop classes are
// translation-invariant on a foldable topology.
//
// The contract, enforced at construction and at run end:
//
//   - the topology must be foldable (FoldUnit() > 0) and the unit a
//     multiple of the topology's period dividing the world size;
//   - the world must be size-only (folding replicates clocks, not
//     payload bytes);
//   - operations that inherently need every rank — generic Split,
//     SharePlan, window construction on a communicator spanning
//     ranks >= u — panic with ErrFoldUnsafe (recovered as the rank's
//     error) instead of deadlocking;
//   - a workload that is not actually fold-symmetric leaves unmatched
//     message records behind; the end-of-run tripwire turns that into
//     a Run error rather than silently wrong clocks.
//
// Which collective algorithms are shift-covariant (and on which group
// sizes) is knowledge of the algorithm layer: internal/coll marks its
// registry entries and derives safe fold units (coll/fold.go); this
// package only provides the mechanism.

// ErrFoldUnsafe is the sentinel for operations that cannot run under
// rank-symmetry folding because they would require the non-executing
// replica ranks to participate. It is delivered by panic and recovered
// into the offending rank's Run error.
var ErrFoldUnsafe = errors.New("mpi: operation requires ranks outside the fold unit (rank-symmetry folding active)")

// validateFold checks Config.FoldUnit against the topology
// (called from NewWorld, before any engine state is sized).
func (w *World) validateFold() error {
	u := w.foldUnit
	if u == 0 {
		return nil
	}
	if u < 0 {
		return fmt.Errorf("mpi: negative fold unit %d", u)
	}
	if w.real {
		return errors.New("mpi: rank-symmetry folding requires a size-only world (WithRealData is set)")
	}
	tu := w.topo.FoldUnit()
	if tu == 0 {
		return errors.New("mpi: rank-symmetry folding on an irregular topology (no translation symmetry)")
	}
	if u%tu != 0 {
		return fmt.Errorf("mpi: fold unit %d is not a multiple of the topology's period %d", u, tu)
	}
	if w.topo.Size()%u != 0 {
		return fmt.Errorf("mpi: fold unit %d does not divide the world size %d", u, w.topo.Size())
	}
	return nil
}

// finishFoldedRun is the end-of-Run tripwire of a folded world. It
// catches workloads that were not actually fold-symmetric: every
// correct folded run matches all representative sends and receives
// (each crossed send pairs with the translated receive its
// destination's representative posted), so leftover queued records mean
// the pattern was asymmetric and the clocks are not trustworthy. That
// becomes a Run error and poisons the world.
func (w *World) finishFoldedRun(runErr error) error {
	if runErr != nil || w.Aborted() {
		return runErr
	}
	if pending := w.match.pendingRecords(); pending > 0 {
		w.Abort()
		return fmt.Errorf("mpi: folded run left %d unmatched message records — workload is not fold-symmetric for unit %d", pending, w.foldUnit)
	}
	return nil
}
