package mpi

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Deterministic noise and fault injection (the mpi half; the config and
// PRNG live in internal/sim/noise.go).
//
// Noise perturbs the clean LogGP timeline in three ways — per-rank
// compute jitter, straggler slowdown, per-hop-class link congestion —
// all drawn from the counter-based sim.NoiseU01 PRNG in each rank's own
// program order, so a seed is bit-identical across the goroutine and
// event engines and across warm-world reuse. Scheduled rank failures
// are the fourth knob, with ULFM-flavored (MPI Fault Tolerance WG)
// recovery semantics:
//
//   - a rank whose virtual clock reaches its failure deadline dies at
//     its next operation boundary: it stops executing (its Run slot
//     reports no error — the death is configured, not a bug) and the
//     world is marked Damaged;
//   - point-to-point operations touching the dead rank fail with
//     ErrRankFailed — receives already parked on it are woken with the
//     failClock sentinel, later posts are refused at the matcher;
//     messages the dead rank posted before dying remain deliverable
//     (in-flight delivery, as ULFM allows);
//   - non-fault-aware collectives (FuseClocks, exchange-based setup) on
//     a communicator with a dead member panic with ErrRankFailed, which
//     aborts the job — exactly MPI's default MPI_ERRORS_ARE_FATAL
//     behavior. Members already parked inside a rendezvous round are
//     woken by the death walk and fail the same way;
//   - fault-tolerant programs instead use Comm.Revoke (poison the
//     communicator so every member's pending and future p2p ops fail),
//     Comm.Agree (fault-aware agreement over the live members) and
//     Comm.Shrink (build a live-ranks communicator) to recover —
//     see ExampleComm_Shrink.
//
// Failure limitations (documented contract): a second rank death while
// survivors are inside Agree/Shrink aborts the job rather than
// cascading the recovery, and a receive from AnySource is not failed by
// a peer's death (only source-specific receives are).

// ErrRankFailed is returned (or delivered via panic and recovered as a
// rank error, for collectives) when an operation cannot complete
// because a peer rank died — the simulator's MPI_ERR_PROC_FAILED.
var ErrRankFailed = errors.New("mpi: peer rank failed")

// ErrRevoked is returned from point-to-point operations on a revoked
// communicator — the simulator's MPI_ERR_REVOKED.
var ErrRevoked = errors.New("mpi: communicator revoked")

// errRankKilled is the panic value a rank dies with when its scheduled
// failure deadline passes. It unwinds the rank body; recoveredRankError
// maps it to a nil error (the death is configuration, not a failure of
// the run).
var errRankKilled = errors.New("mpi: rank killed by scheduled failure")

// noiseState is the world's compiled noise configuration: the sim.Noise
// knobs turned into flat per-rank lookup tables so the hot paths pay
// one nil check when noise is off and plain indexed loads when it is
// on.
type noiseState struct {
	seed    int64
	jitter  float64
	congest [sim.HopGroup + 1]float64 // per hop class; 0 = unscaled
	// straggler holds the per-rank compute slowdown (0 for non-straggler
	// ranks); nil when no stragglers are configured.
	straggler []float64
	// failAt holds each rank's failure deadline (-1 = never dies); nil
	// when no failures are scheduled.
	failAt []sim.Time
}

// compileNoise flattens a validated sim.Noise into the lookup tables.
// A nil or all-zero config compiles to nil: a clean world pays one nil
// check per operation and nothing else.
func compileNoise(n *sim.Noise, size int) *noiseState {
	if !n.Enabled() {
		return nil
	}
	ns := &noiseState{seed: n.Seed, jitter: n.Jitter}
	for c, f := range n.Congestion {
		if f != 1 {
			ns.congest[c] = f
		}
	}
	if len(n.Stragglers) > 0 {
		ns.straggler = make([]float64, size)
		for _, r := range n.Stragglers {
			ns.straggler[r] = n.StragglerFactor
		}
	}
	if len(n.Failures) > 0 {
		ns.failAt = make([]sim.Time, size)
		for i := range ns.failAt {
			ns.failAt[i] = -1
		}
		for _, f := range n.Failures {
			// Earliest deadline wins for a rank listed twice.
			if ns.failAt[f.Rank] < 0 || f.At < ns.failAt[f.Rank] {
				ns.failAt[f.Rank] = f.At
			}
		}
	}
	return ns
}

// xferScale computes the multiplicative factor a transfer posted by p
// over the given hop class carries: the class's congestion factor times
// a jitter draw. The draw consumes one PRNG coordinate in p's program
// order, which is identical across engines. Returns 0 for an unscaled
// transfer (the common representation the matcher tests for).
func (ns *noiseState) xferScale(p *Proc, class sim.HopClass) float64 {
	s := ns.congest[class]
	if s == 0 {
		s = 1
	}
	if ns.jitter > 0 {
		u := sim.NoiseU01(ns.seed, p.rank, p.noiseOps, class)
		p.noiseOps++
		s *= 1 + float64(ns.jitter*u) // rounded before the add, never fused
	}
	if s == 1 {
		return 0
	}
	return s
}

// perturb stretches a compute span by the rank's straggler factor and a
// jitter draw. Pure float64 multiplies (no fusable multiply-add), so
// the result is bit-identical across platforms and engines.
func (p *Proc) perturb(d sim.Time) sim.Time {
	ns := p.world.noise
	if ns == nil || d <= 0 {
		return d
	}
	if ns.straggler != nil {
		if f := ns.straggler[p.rank]; f > 1 {
			d = sim.Time(float64(d) * f)
		}
	}
	if ns.jitter > 0 {
		u := sim.NoiseU01(ns.seed, p.rank, p.noiseOps, sim.HopSelf)
		p.noiseOps++
		d += sim.Time(float64(d) * ns.jitter * u)
	}
	return d
}

// maybeFail is the failure boundary check: a rank whose clock reached
// its scheduled deadline dies here (killRank panics, so maybeFail does
// not return for a dying rank). It is called at every operation
// boundary — compute spans, p2p posts, collective entries — so the
// death point is a deterministic function of the virtual timeline.
func (p *Proc) maybeFail() {
	ns := p.world.noise
	if ns == nil || ns.failAt == nil {
		return
	}
	if at := ns.failAt[p.rank]; at >= 0 && p.clock >= at {
		p.world.killRank(p)
	}
}

// hasFailures reports whether this world has scheduled rank failures.
func (w *World) hasFailures() bool { return w.noise != nil && w.noise.failAt != nil }

// Damaged reports whether a scheduled rank failure has occurred. A
// damaged world keeps running (survivors may recover via Shrink), but
// it must not be reused for fresh measurements: dead-rank state is
// permanent, so warm pools discard damaged worlds instead of parking
// them.
func (w *World) Damaged() bool { return w.damaged.Load() }

// killRank executes rank p's scheduled death: it marks the world
// damaged, publishes the death flag, then fails everything that waits
// on p in one walk over the live contexts — the matcher records whose
// peer it is and the rendezvous rounds whose member table lists it — and
// unwinds the rank body with errRankKilled. The one ordering rule: flag
// first, walk after. A concurrent post or arrival either observes the
// flag under the lock the walk takes next (and fails on its own) or got
// in before the walk locks there (and is failed by it). A recovery round
// over the live set is not
// waiting on p, so the walk leaves it alone however early a survivor
// starts it. Runs on the dying rank's own goroutine — which in event
// mode is the rank the driver is running, making the scheduler wakes
// safe.
func (w *World) killRank(p *Proc) {
	w.damaged.Store(true)
	w.match.dead[p.rank].Store(true)
	w.poison(failClock, fmt.Errorf("mpi: rank %d failed during a rendezvous: %w", p.rank, ErrRankFailed),
		func(g int) bool { return g == p.rank })
	if w.tracer.Enabled() {
		w.tracer.Record(sim.Event{At: p.clock, Rank: p.rank, Kind: "fail", Note: "scheduled rank failure"})
	}
	panic(errRankKilled)
}

// stranded reports why a rendezvous over members can never complete:
// the job aborted, or a member is dead (nil when it still can). meet
// evaluates it under the context's lock.
func (w *World) stranded(members []int) error {
	if w.Aborted() {
		return ErrAborted
	}
	if m := w.match; m.dead != nil {
		for _, g := range members {
			if m.dead[g].Load() {
				return fmt.Errorf("mpi: rendezvous on a communicator containing failed rank %d: %w", g, ErrRankFailed)
			}
		}
	}
	return nil
}

// Revoke poisons this communicator on every member — the simulator's
// MPI_Comm_revoke. Pending and future point-to-point operations on the
// communicator fail with ErrRevoked on all members, which is how one
// rank's failure observation propagates to members that were not
// communicating with the dead rank. Revocation is permanent and
// idempotent; recovery continues on the communicator returned by
// Shrink. Coordination-plane calls (Agree, Shrink) still work on a
// revoked communicator. Safe from any rank (on the event engine the
// caller is the rank the driver is running).
func (c *Comm) Revoke() {
	if c.cx.state.CompareAndSwap(ctxLive, ctxRevoked) {
		c.cx.fail(c.p.world, revokedClock, func(int) bool { return true })
	}
}

// Revoked reports whether this communicator has been revoked.
func (c *Comm) Revoked() bool { return c.cx.state.Load() == ctxRevoked }

// liveMembers returns the global ranks of this communicator that have
// not died, and the caller's index among them: the member table of the
// fault-aware rounds behind Agree and Shrink. Every member observes the
// same live set by the time it reaches a recovery call (the failure it
// is recovering from happened causally before), so the live-indexed
// rounds line up across members.
func (c *Comm) liveMembers() (live []int, idx int) {
	m := c.p.world.match
	live = make([]int, 0, len(c.cx.ranks))
	idx = -1
	for _, g := range c.cx.ranks {
		if m.dead != nil && m.dead[g].Load() {
			continue
		}
		if g == c.p.rank {
			idx = len(live)
		}
		live = append(live, g)
	}
	return live, idx
}

// recoveryCost models the virtual time a fault-aware agreement over n
// members costs: two dissemination sweeps of latency-bound hops on the
// communicator's dominant hop class.
func (c *Comm) recoveryCost(n int) sim.Time {
	if n <= 1 {
		return 0
	}
	return sim.Time(2*sim.Log2Ceil(n)) * c.p.world.model.Alpha(c.HopClass())
}

// Agree performs fault-aware agreement over the communicator's live
// members — the simulator's MPI_Comm_agree: it returns the logical AND
// of every live member's flag, synchronizing their virtual clocks (max
// entry clock plus the modeled agreement cost). Dead members are
// excluded; a rank that dies during the agreement aborts the job (see
// the package limitations note).
func (c *Comm) Agree(flag bool) (bool, error) {
	c.p.maybeFail()
	live, idx := c.liveMembers()
	max, vals, _ := c.meet(live, len(live), idx, c.p.clock, flag, nil)
	for _, v := range vals {
		flag = flag && v.(bool)
	}
	c.p.syncTo(max + c.recoveryCost(len(live)))
	return flag, nil
}

// Shrink builds a new communicator over this one's live members — the
// simulator's MPI_Comm_shrink, the recovery step fault-tolerant
// programs call after revoking a broken communicator. The new
// communicator orders members by their old comm rank, inherits the
// collective tuning, and is immediately usable for p2p and
// collectives. Clocks synchronize like Agree.
func (c *Comm) Shrink() (*Comm, error) {
	c.p.maybeFail()
	live, idx := c.liveMembers()
	if idx < 0 {
		return nil, fmt.Errorf("mpi: Shrink on rank %d which is itself dead", c.p.rank)
	}
	max, _, out := c.meet(live, len(live), -1, c.p.clock, nil, func([]any) any {
		return c.p.world.NewContext(live)
	})
	c.p.syncTo(max + c.recoveryCost(len(live)))
	return c.NewGroupComm(out.(*Context), idx), nil
}

// DeadRanks returns the global ranks that have died so far (tests and
// recovery diagnostics). Only meaningful between operations.
func (w *World) DeadRanks() []int {
	m := w.match
	if m.dead == nil {
		return nil
	}
	var dead []int
	for r := range m.dead {
		if m.dead[r].Load() {
			dead = append(dead, r)
		}
	}
	return dead
}

// failErr maps a sentinel completion time delivered through a matcher
// record's slot to its error (nil for a legitimate completion
// time). Sentinels are the most negative Times; legitimate completions
// are never negative.
func failErr(at sim.Time) error {
	switch at {
	case abortClock:
		return ErrAborted
	case failClock:
		return ErrRankFailed
	case revokedClock:
		return ErrRevoked
	}
	return nil
}
