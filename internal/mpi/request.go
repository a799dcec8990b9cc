package mpi

import (
	"errors"

	"repro/internal/sim"
)

// Request is a nonblocking operation handle (MPI_Request).
type Request struct {
	p      *Proc
	isSend bool
	eager  bool
	msg    *message // send side (rendezvous only; eager sends complete at post)
	rr     *recvReq // recv side
	status Status
	done   bool
	err    error // latched failure (see progress)
}

// postSendAtClock posts a send whose virtual posting time is `at` —
// the caller's clock on the blocking/Isend path, the schedule
// executor's cursor otherwise — and returns the pending message, or
// nil for an eager send (which completes at post; the message is owned
// by the matcher/pool from there on and must not be retained). The
// caller charges the eager posting overhead to its own timeline.
func (c *Comm) postSendAtClock(buf Buf, dst, tag int, at sim.Time, kind string) (*message, error) {
	if err := c.validRank(dst, false); err != nil {
		return nil, err
	}
	c.p.maybeFail()
	w := c.p.world
	eager := w.model.Eager(buf.Len())
	data := buf
	var store *[]byte
	if eager {
		data, store = cloneEager(buf)
	}
	var xscale float64
	if ns := w.noise; ns != nil {
		xscale = ns.xferScale(c.p, w.topo.Hop(c.p.rank, c.cx.ranks[dst]))
	}
	// Field by field: a literal would overwrite the pooled slot and link.
	msg := w.getMessage()
	msg.src, msg.dst, msg.commSrc, msg.tag = c.p.rank, c.cx.ranks[dst], c.rank, tag
	msg.data, msg.store = data, store
	msg.eager, msg.flag = eager, false
	msg.xferScale, msg.postClock = xscale, at
	if w.tracer.Enabled() {
		w.tracer.Record(sim.Event{At: at, Rank: c.p.rank, Kind: kind, Bytes: buf.Len()})
	}
	r, err := w.match.postSend(c.cx, dst, msg, w.evLive)
	if err != nil {
		w.putMessage(msg)
		return nil, err
	}
	if r != nil {
		w.complete(msg, r)
	}
	if eager {
		return nil, nil
	}
	return msg, nil
}

// postSendMsg posts a send at the caller's clock and returns the
// pending message (nil for eager sends, whose posting overhead is
// charged here).
func (c *Comm) postSendMsg(buf Buf, dst, tag int) (*message, error) {
	msg, err := c.postSendAtClock(buf, dst, tag, c.p.clock, "send")
	if err != nil {
		return nil, err
	}
	if msg == nil {
		// The sender pays only its posting overhead and moves on.
		c.p.advance(c.p.world.model.SendOverhead)
	}
	return msg, nil
}

// postRecvReqAt posts a receive at an explicit virtual time. A
// non-empty kind records a trace event at post (the blocking path
// traces at completion instead). The caller must hand the record to
// waitRecvReq (or the schedule executor's settle) exactly once, which
// recycles it.
func (c *Comm) postRecvReqAt(buf Buf, src, tag int, at sim.Time, kind string) (*recvReq, error) {
	if err := c.validRank(src, true); err != nil {
		return nil, err
	}
	c.p.maybeFail()
	srcGlobal := AnySource
	if src != AnySource {
		srcGlobal = c.cx.ranks[src]
	}
	w := c.p.world
	rr := w.getRecvReq()
	rr.src, rr.tag, rr.srcGlobal, rr.dst = src, tag, srcGlobal, c.p.rank
	rr.buf, rr.postClock = buf, at
	if kind != "" && w.tracer.Enabled() {
		w.tracer.Record(sim.Event{At: at, Rank: c.p.rank, Kind: kind, Bytes: buf.Len()})
	}
	msg, err := w.match.postRecv(c.cx, c.rank, rr, w.evLive)
	if err != nil {
		w.putRecvReq(rr)
		return nil, err
	}
	if msg != nil {
		w.complete(msg, rr)
	}
	return rr, nil
}

// postRecvReq posts a receive at the caller's clock.
func (c *Comm) postRecvReq(buf Buf, src, tag int) (*recvReq, error) {
	return c.postRecvReqAt(buf, src, tag, c.p.clock, "")
}

// take takes the completion off a record's slot: blocking through
// awaitSlot, or, for the Test flavors, only one that has already been
// fed. on is the record, for the event engine's deadlock report.
func take[T any](p *Proc, s *slot[T], on any, block bool) (v T, ok bool) {
	if block {
		return awaitSlot(p, s, on), true
	}
	if !s.fed() {
		return v, false
	}
	return s.take(), true
}

// waitSendMsg blocks until a rendezvous send completes.
func (p *Proc) waitSendMsg(m *message) error { return p.finishSend(m, awaitSlot(p, &m.done, m)) }

// finishSend consumes what a rendezvous send's done slot produced —
// its completion time, or the sentinel that ended the wait: the message
// is recycled and the clock advances.
func (p *Proc) finishSend(m *message, at sim.Time) error {
	p.world.putMessage(m)
	if err := failErr(at); err != nil {
		return err
	}
	p.syncTo(at)
	return nil
}

// waitRecvReq blocks until a receive completes. A receive whose send
// was already queued completed synchronously inside postRecv, so the
// result is often sitting in the slot already and the receive doesn't
// even park.
func (p *Proc) waitRecvReq(rr *recvReq) (Status, error) {
	return p.finishRecv(rr, awaitSlot(p, &rr.result, rr))
}

// finishRecv is finishSend for a receive record.
func (p *Proc) finishRecv(rr *recvReq, res recvResult) (Status, error) {
	p.world.putRecvReq(rr)
	if err := failErr(res.at); err != nil {
		return Status{}, err
	}
	p.syncTo(res.at)
	p.trace("recv", res.bytes, "")
	return Status{Source: res.source, Tag: res.tag, Bytes: res.bytes}, nil
}

// Isend posts a nonblocking send. The payload of a real-data eager send
// is snapshotted so the caller may reuse buf immediately, matching MPI's
// buffered-eager semantics.
func (c *Comm) Isend(buf Buf, dst, tag int) (*Request, error) {
	msg, err := c.postSendMsg(buf, dst, tag)
	if err != nil {
		return nil, err
	}
	return &Request{p: c.p, isSend: true, eager: msg == nil, msg: msg}, nil
}

// Irecv posts a nonblocking receive.
func (c *Comm) Irecv(buf Buf, src, tag int) (*Request, error) {
	rr, err := c.postRecvReq(buf, src, tag)
	if err != nil {
		return nil, err
	}
	return &Request{p: c.p, rr: rr}, nil
}

// Wait blocks until the operation completes and advances the caller's
// virtual clock to the completion time. For receives it returns the
// Status.
func (r *Request) Wait() (Status, error) {
	if r == nil {
		return Status{}, errors.New("mpi: Wait on nil request")
	}
	_, st, err := r.progress(true)
	return st, err
}

// Test polls for completion without blocking (MPI_Test). When the
// operation has completed it behaves exactly like Wait: the caller's
// clock advances to the completion time and the Status is returned.
// The virtual timestamps involved are deterministic; only *when* (in
// host time) Test first observes them is not, which mirrors real MPI,
// where Test's return value depends on progress timing.
func (r *Request) Test() (bool, Status, error) {
	if r == nil {
		return false, Status{}, errors.New("mpi: Test on nil request")
	}
	return r.progress(false)
}

// progress is Wait (block) and Test (poll) in one: they differ only in
// how the record's slot is read.
func (r *Request) progress(block bool) (bool, Status, error) {
	if r.err != nil || r.done {
		return r.err == nil, r.status, r.err
	}
	ok := true
	switch {
	case r.isSend && r.eager:
		// Completion time was already charged at post.
	case r.isSend:
		var at sim.Time
		if at, ok = take(r.p, &r.msg.done, r.msg, block); ok {
			r.err = r.p.finishSend(r.msg, at)
			r.msg = nil
		}
	default:
		var res recvResult
		if res, ok = take(r.p, &r.rr.result, r.rr, block); ok {
			r.status, r.err = r.p.finishRecv(r.rr, res)
			r.rr = nil
		}
	}
	if !ok {
		r.p.yield()
		return false, Status{}, nil
	}
	// A failure (abort, rank failed, revoked) is latched: every later
	// Wait/Test repeats it instead of touching the recycled record.
	r.done = r.err == nil
	return r.done, r.status, r.err
}

// Waitall completes a set of requests, returning the first error.
func Waitall(reqs ...*Request) error {
	var firstErr error
	for _, rq := range reqs {
		if rq == nil {
			continue
		}
		if _, err := rq.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
