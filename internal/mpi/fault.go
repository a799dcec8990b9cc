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
//     behavior. Members already parked inside a fusion round or setup
//     session are woken by the death walk and fail the same way;
//   - fault-tolerant programs instead use Comm.Revoke (poison the
//     communicator so every member's pending and future p2p ops fail),
//     Comm.Agree (fault-aware agreement over the live members) and
//     Comm.Shrink (build a live-ranks communicator) to recover —
//     see examples/faulttol.
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
		s *= 1 + ns.jitter*u
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

// killRank executes rank p's scheduled death. It marks the world
// damaged, publishes the death flag, fails every matcher record that
// can no longer complete, wakes collective waiters stranded in fusion
// rounds or setup sessions on communicators containing p, and unwinds
// the rank body with errRankKilled. Runs on the dying rank's own
// goroutine — which in event mode is the token holder, making the
// scheduler wakes safe.
func (w *World) killRank(p *Proc) {
	w.damaged.Store(true)
	// The session walk runs first: survivors can only learn of the
	// death through matcher sentinels or the dead flag (both published
	// by the matcher walk below), so no survivor can start a recovery
	// exchange while this walk might still mistake it for a stranded
	// session and fail it. The fusion walk runs last: a member that
	// enters a cell the walk has not seen is caught by the cell's own
	// dead-flag re-check, which needs the flag published first.
	w.coord.failSessions(w, p.rank)
	w.match.killRank(w, p.rank)
	w.coord.failFusers(w, p.rank)
	if w.tracer.Enabled() {
		w.tracer.Record(sim.Event{At: p.clock, Rank: p.rank, Kind: "fail", Note: "scheduled rank failure"})
	}
	panic(errRankKilled)
}

// registerComm records a communicator's member table for the death
// walk (which must know whether a context's communicator contains the
// dead rank). Only worlds with scheduled failures track this; for
// everyone else it is a single nil check.
func (w *World) registerComm(ctx int, ranks []int) {
	if w.hasFailures() {
		w.commRanks.Store(ctx, ranks)
	}
}

// ctxHasRank reports whether the communicator registered for ctx
// contains the given global rank. Unregistered contexts conservatively
// report true: wrongly failing a waiter is loud, stranding one is a
// hang.
func (w *World) ctxHasRank(ctx, rank int) bool {
	v, ok := w.commRanks.Load(ctx)
	if !ok {
		return true
	}
	for _, g := range v.([]int) {
		if g == rank {
			return true
		}
	}
	return false
}

// deadMember returns the first dead global rank in ranks, -1 if none.
func (m *matcher) deadMember(ranks []int) int {
	if m.dead == nil {
		return -1
	}
	for _, g := range ranks {
		if m.dead[g].Load() {
			return g
		}
	}
	return -1
}

// checkFailed is the collective-entry failure gate: the caller dies if
// its own deadline passed, and panics with ErrRankFailed if the
// communicator contains a dead member — non-fault-aware collectives on
// a broken communicator fail fast (and fatally) instead of deadlocking.
func (c *Comm) checkFailed() {
	w := c.p.world
	if !w.hasFailures() {
		return
	}
	c.p.maybeFail()
	if r := w.match.deadMember(c.ranks); r >= 0 {
		panic(fmt.Errorf("mpi: collective on communicator containing failed rank %d: %w", r, ErrRankFailed))
	}
}

// deadCheck is the fold of checkFailed the fusion cell re-evaluates
// under its own lock, closing the race between a member's entry check
// and a concurrent death.
func (c *Comm) deadCheck() bool {
	return c.p.world.match.deadMember(c.ranks) >= 0
}

// killRank fails the matcher records a rank's death strands. Shard
// `rank` holds exactly the sends addressed to the dead rank and the
// dead rank's own posted receives; receives expecting the dead rank as
// their source live wherever their poster's queue is. The death flag is
// published first, so a concurrent post either observes it under the
// shard lock (and fails with ErrRankFailed) or lands before this walk
// locks that shard (and is failed by it) — the same interleaving
// argument as the abort poison.
func (m *matcher) killRank(w *World, rank int) {
	if m.dead == nil {
		panic("mpi: killRank without failure configuration")
	}
	m.dead[rank].Store(true)
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		for _, cq := range s.queues {
			q := cq.q
			if i == rank {
				// Sends to the dead rank can never be received: wake
				// rendezvous senders with the failure sentinel, recycle
				// fire-and-forget eager payloads.
				for j := q.sends.head; j < len(q.sends.items); j++ {
					msg := q.sends.items[j]
					if msg.eager {
						if msg.store != nil {
							putEagerStore(msg.store)
						}
						putMessage(msg)
					} else {
						msg.done <- failClock
						if w.evLive {
							w.ev.wake(msg.src)
						}
					}
				}
				q.sends.items = q.sends.items[:0]
				q.sends.head = 0
				// The dead rank's own posted receives stay matchable:
				// whether a peer's send pairs with them then depends only
				// on virtual program order (the receive was posted before
				// the death), never on how the peer's post interleaves
				// with this walk in host time. The dead rank never reads
				// the results; the records are simply never recycled.
				continue
			}
			// Receives on other ranks expecting the dead rank as their
			// source fail; everything else is compacted back in place
			// (writes trail reads on the shared backing array).
			items := q.recvs.items[q.recvs.head:]
			q.recvs.items = q.recvs.items[:q.recvs.head]
			kept := q.recvs.items
			for _, rr := range items {
				if rr.srcGlobal == rank {
					rr.result <- recvResult{at: failClock}
					if w.evLive {
						w.ev.wake(rr.dst)
					}
				} else {
					kept = append(kept, rr)
				}
			}
			q.recvs.items = kept
		}
		s.mu.Unlock()
	}
}

// revokeCtx revokes a communicator context: the revoked mark is
// published first (posts check it under the shard lock), then every
// queued record of the context is failed with the revoked sentinel.
// Idempotent; safe from any rank (the event engine's caller is the
// token holder).
func (m *matcher) revokeCtx(w *World, ctx int) {
	if _, loaded := m.revoked.LoadOrStore(ctx, struct{}{}); loaded {
		return
	}
	m.nRevoked.Add(1)
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		for _, cq := range s.queues {
			if cq.ctx != ctx {
				continue
			}
			q := cq.q
			for j := q.recvs.head; j < len(q.recvs.items); j++ {
				rr := q.recvs.items[j]
				rr.result <- recvResult{at: revokedClock}
				if w.evLive {
					w.ev.wake(rr.dst)
				}
			}
			q.recvs.items = q.recvs.items[:0]
			q.recvs.head = 0
			for j := q.sends.head; j < len(q.sends.items); j++ {
				msg := q.sends.items[j]
				if msg.eager {
					if msg.store != nil {
						putEagerStore(msg.store)
					}
					putMessage(msg)
				} else {
					msg.done <- revokedClock
					if w.evLive {
						w.ev.wake(msg.src)
					}
				}
			}
			q.sends.items = q.sends.items[:0]
			q.sends.head = 0
		}
		s.mu.Unlock()
	}
}

// isRevoked reports whether a context has been revoked (one atomic
// load on the clean path).
func (m *matcher) isRevoked(ctx int) bool {
	if m.nRevoked.Load() == 0 {
		return false
	}
	_, ok := m.revoked.Load(ctx)
	return ok
}

// Revoke poisons this communicator on every member — the simulator's
// MPI_Comm_revoke. Pending and future point-to-point operations on the
// communicator fail with ErrRevoked on all members, which is how one
// rank's failure observation propagates to members that were not
// communicating with the dead rank. Revocation is permanent; recovery
// continues on the communicator returned by Shrink. Coordination-plane
// calls (Agree, Shrink) still work on a revoked communicator.
func (c *Comm) Revoke() {
	c.p.world.match.revokeCtx(c.p.world, c.ctx)
}

// Revoked reports whether this communicator has been revoked.
func (c *Comm) Revoked() bool { return c.p.world.match.isRevoked(c.ctx) }

// liveMembers returns the global ranks of this communicator that have
// not died, and the caller's index among them. Every member observes
// the same live set by the time it reaches a recovery call (the
// failure it is recovering from happened causally before), so the
// live-indexed coordination sessions line up across members.
func (c *Comm) liveMembers() (live []int, idx int) {
	m := c.p.world.match
	live = make([]int, 0, len(c.ranks))
	idx = -1
	for _, g := range c.ranks {
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

// exchangeLive is the fault-aware flavor of exchange: an untimed
// allgather over the live members only, keyed by the same per-handle
// sequence counters (dead members never advance theirs, and every live
// member computes the same live set). The returned contribution vector
// is indexed by live index.
func (c *Comm) exchangeLive(val any) (vals []any, live []int, idx int) {
	c.p.maybeFail()
	live, idx = c.liveMembers()
	key := coordKey{ctx: c.ctx, seq: c.nextSeq()}
	return c.p.world.coord.exchange(key, c.p, idx, len(live), val), live, idx
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
	type agreeVal struct {
		flag  bool
		clock sim.Time
	}
	vals, live, _ := c.exchangeLive(agreeVal{flag: flag, clock: c.p.clock})
	out := true
	var max sim.Time
	for _, v := range vals {
		av := v.(agreeVal)
		out = out && av.flag
		if av.clock > max {
			max = av.clock
		}
	}
	c.p.syncTo(max + c.recoveryCost(len(live)))
	return out, nil
}

// shrinkPlan is the shared shape of one Shrink call: the fresh context
// id and the live-rank table, computed by the lowest live member.
type shrinkPlan struct {
	ctx   int
	ranks []int
}

// Shrink builds a new communicator over this one's live members — the
// simulator's MPI_Comm_shrink, the recovery step fault-tolerant
// programs call after revoking a broken communicator. The new
// communicator orders members by their old comm rank, inherits the
// collective tuning, and is immediately usable for p2p and
// collectives. Clocks synchronize like Agree.
func (c *Comm) Shrink() (*Comm, error) {
	vals, live, idx := c.exchangeLive(c.p.clock)
	if idx < 0 {
		return nil, fmt.Errorf("mpi: Shrink on rank %d which is itself dead", c.p.rank)
	}
	var max sim.Time
	for _, v := range vals {
		if t := v.(sim.Time); t > max {
			max = t
		}
	}
	var plan *shrinkPlan
	if idx == 0 {
		plan = &shrinkPlan{ctx: c.p.world.newContext(), ranks: live}
	}
	published, _, _ := c.exchangeLive(plan)
	plan, _ = published[0].(*shrinkPlan)
	if plan == nil {
		return nil, errors.New("mpi: shrink plan missing from live leader")
	}
	w := c.p.world
	w.match.reserve(plan.ctx, c.p.rank)
	w.registerComm(plan.ctx, plan.ranks)
	c.p.syncTo(max + c.recoveryCost(len(live)))
	return &Comm{p: c.p, ctx: plan.ctx, ranks: plan.ranks, rank: idx, collCfg: c.collCfg}, nil
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
// record's channel to its error (nil for a legitimate completion
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
