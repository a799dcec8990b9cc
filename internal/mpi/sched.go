package mpi

import (
	"errors"

	"repro/internal/sim"
)

// This file is the executor for nonblocking collectives: a Sched is a
// compiled communication schedule — rounds of sends and receives with
// local epilogue work — driven through the same posting/matching
// machinery as Isend/Irecv (see request.go), but on its own virtual
// timeline.
//
// The timeline is the key design point. A schedule models an
// asynchronous progress engine (hardware offload / firmware, as in
// triggered-operations NICs): its operations execute at the engine's
// cursor, which starts at the caller's clock when the schedule starts
// and then advances only by the schedule's own communication and
// epilogue costs. The caller's clock is untouched until Wait (or a
// successful Test) fuses the two: clock = max(clock, cursor). That is
// exactly the overlap semantics nonblocking collectives exist for —
// total time is max(local compute, collective) — and, unlike
// caller-clock-driven progression, it is deterministic: when (in host
// time) the caller happens to poll has no influence on any virtual
// timestamp.

// Nonblocking-schedule tag space. Each schedule instance gets a stride
// of tags so that overlapping schedules on one communicator cannot
// cross-match even when their rounds interleave on the wire. 1<<26
// keeps clear of user tags (conventionally < 1<<24), runtime-internal
// tags (1<<24) and the blocking collectives' tag block (1<<25).
const (
	schedTagBase   = 1 << 26
	schedTagStride = 64
	schedTagWindow = 1 << 14
)

// SchedOp is one communication operation of a schedule round. Tag is a
// schedule-relative tag (reduced modulo the per-schedule stride); ops
// that can pair across ranks must use the same relative tag on both
// sides, and relative tags must not depend on rank-local round counts.
type SchedOp struct {
	IsSend bool
	Buf    Buf
	Peer   int // comm rank
	Tag    int // schedule-relative tag
}

// SchedSend builds a send operation for a schedule round.
func SchedSend(buf Buf, peer, tag int) SchedOp {
	return SchedOp{IsSend: true, Buf: buf, Peer: peer, Tag: tag}
}

// SchedRecv builds a receive operation for a schedule round.
func SchedRecv(buf Buf, peer, tag int) SchedOp {
	return SchedOp{Buf: buf, Peer: peer, Tag: tag}
}

// Round is one dependency level of a schedule. Its operations are
// posted together once every earlier round has completed; After — the
// local epilogue (reduction fold, unpack copy) — runs at the round's
// virtual completion time and returns the cursor after its local work.
// Within a round, receives should be listed before sends, mirroring
// the deadlock-free Sendrecv posting order of the blocking algorithms.
type Round struct {
	Ops   []SchedOp
	After func(now sim.Time) sim.Time
}

// schedPending tracks one posted operation: its record until the
// completion is taken off it (both nil from then on), then the time.
type schedPending struct {
	msg *message // rendezvous send
	rr  *recvReq // receive
	at  sim.Time
}

// Sched is a nonblocking collective in flight (MPI_Request for an
// I-collective). Exactly one of Wait/Test drives it at a time, from
// the owning rank's goroutine.
type Sched struct {
	c       *Comm
	tagBase int
	rounds  []Round
	cur     int
	cursor  sim.Time
	pend    []schedPending
	started bool
	done    bool
	err     error
}

// NewSched compiles rounds into a schedule on this communicator. Like
// the blocking collectives, schedules must be created in the same
// order by every member of the communicator: the per-communicator
// sequence number that isolates concurrent schedules' tag spaces is
// symmetric only under that (standard MPI) discipline.
func (c *Comm) NewSched(rounds []Round) *Sched {
	base := schedTagBase + schedTagStride*(c.sched%schedTagWindow)
	c.sched++
	return &Sched{c: c, tagBase: base, rounds: rounds}
}

// Start begins execution: the cursor latches the caller's current
// clock and the first round is posted. Start is idempotent; Wait and
// Test call it implicitly.
func (s *Sched) Start() error {
	if s.started || s.err != nil {
		return s.err
	}
	s.started = true
	s.cursor = s.c.p.clock
	return s.fail(s.postRounds())
}

// fail records a terminal error.
func (s *Sched) fail(err error) error {
	if err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// postRounds posts rounds starting at s.cur until one has outstanding
// operations or the schedule ends. Rounds whose operations are all
// local (or all eager sends) complete inline at the cursor.
func (s *Sched) postRounds() error {
	model := s.c.p.world.model
	for s.cur < len(s.rounds) {
		r := &s.rounds[s.cur]
		s.pend = s.pend[:0]
		for _, op := range r.Ops {
			tag := s.tagBase + op.Tag%schedTagStride
			if op.IsSend {
				msg, err := s.c.postSendAtClock(op.Buf, op.Peer, tag, s.cursor, "sched-send")
				if err != nil {
					return err
				}
				if msg == nil {
					// Eager: the engine pays the posting overhead
					// and moves on, like the blocking send path.
					s.cursor += model.SendOverhead
				} else {
					s.pend = append(s.pend, schedPending{msg: msg})
				}
			} else {
				rr, err := s.c.postRecvReqAt(op.Buf, op.Peer, tag, s.cursor, "sched-recv")
				if err != nil {
					return err
				}
				s.pend = append(s.pend, schedPending{rr: rr})
			}
		}
		if len(s.pend) > 0 {
			return nil
		}
		s.finishRound()
	}
	s.done = true
	return nil
}

// finishRound folds the settled completion times into the cursor, runs
// the epilogue, and advances to the next round. All pending ops must
// be settled.
func (s *Sched) finishRound() {
	for i := range s.pend {
		if at := s.pend[i].at; at > s.cursor {
			s.cursor = at
		}
	}
	s.pend = s.pend[:0]
	if after := s.rounds[s.cur].After; after != nil {
		s.cursor = after(s.cursor)
	}
	s.cur++
}

// settle takes the outstanding completions of the current round off
// their records — blocking (Wait) or only those that already arrived
// (Test) — and reports whether the round is complete. What arrives may
// be a sentinel (abort, dead peer, revoked communicator): it ends the
// schedule with its error instead of entering the cursor as a time.
func (s *Sched) settle(block bool) (bool, error) {
	p := s.c.p
	all := true
	for i := range s.pend {
		op := &s.pend[i]
		ok := true
		if op.msg != nil {
			if op.at, ok = take(p, &op.msg.done, op.msg, block); ok {
				p.world.putMessage(op.msg)
				op.msg = nil
			}
		} else if op.rr != nil {
			var res recvResult
			if res, ok = take(p, &op.rr.result, op.rr, block); ok {
				p.world.putRecvReq(op.rr)
				op.rr, op.at = nil, res.at
			}
		}
		if !ok {
			all = false
		} else if err := failErr(op.at); err != nil {
			return false, err
		}
	}
	if !all {
		// Hand control off so the peers this round is waiting on can run
		// (see Proc.yield).
		p.yield()
	}
	return all, nil
}

// progress drives the schedule: to completion (block), or as far as the
// completions that already arrived allow. On completion it fuses the
// caller's clock with the engine cursor: clock = max(clock, cursor).
func (s *Sched) progress(block bool) (bool, error) {
	if err := s.Start(); err != nil {
		return false, err
	}
	for !s.done {
		ok, err := s.settle(block)
		if s.fail(err) != nil || !ok {
			return false, s.err
		}
		s.finishRound()
		if err := s.fail(s.postRounds()); err != nil {
			return false, err
		}
	}
	s.c.p.syncTo(s.cursor)
	return true, nil
}

// Wait drives the schedule to completion and fuses the caller's clock
// with the engine cursor. Calling Wait on a completed schedule is a
// no-op.
func (s *Sched) Wait() error {
	if s == nil {
		return errors.New("mpi: Wait on nil schedule")
	}
	_, err := s.progress(true)
	return err
}

// Test makes progress without blocking and reports whether the
// schedule has completed; on completion it fuses clocks exactly like
// Wait. Whether a given Test observes completion depends on host
// scheduling (as in real MPI), but every virtual timestamp is
// deterministic either way.
func (s *Sched) Test() (bool, error) {
	if s == nil {
		return false, errors.New("mpi: Test on nil schedule")
	}
	return s.progress(false)
}

// Done reports whether the schedule has completed (after which Wait
// and Test are no-ops).
func (s *Sched) Done() bool { return s.done }
