package mpi

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Wildcards for Recv/Irecv, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG. The
// collective algorithms never use them (determinism), but user code may.
const (
	AnySource = -1
	AnyTag    = -2
)

// Status describes a completed receive.
type Status struct {
	Source int // comm rank the message came from
	Tag    int
	Bytes  int
}

// message is a posted send waiting to be matched.
type message struct {
	src, dst  int // global ranks
	commSrc   int // sender's comm rank (reported in Status)
	tag       int
	data      Buf
	store     *[]byte // pooled backing of an eager payload snapshot, if any
	eager     bool
	flag      bool           // shared-memory flag signal (store/poll, not transport)
	xferScale float64        // noise transfer multiplier; 0 = unscaled (fault.go)
	postClock sim.Time       // sender clock when the send was posted
	done      slot[sim.Time] // sender completion time (rendezvous)
	q         qnode          // link in the destination's rank queue while unmatched
}

// recvReq is a posted receive waiting to be matched.
type recvReq struct {
	src, tag  int // comm-rank source filter (or wildcards)
	srcGlobal int // resolved global source, or AnySource
	dst       int // posting rank (event-engine wake routing)
	buf       Buf
	postClock sim.Time
	result    slot[recvResult]
	q         qnode // link in the poster's rank queue while unmatched
}

type recvResult struct {
	at     sim.Time
	bytes  int
	source int // comm rank
	tag    int
}

// slot is a record's completion: the value its completer feeds, a state
// word, and a channel that is only used when the waiter really sleeps.
// It follows the futex pattern: the completer stores the value, then
// swaps the state to fed, and sends on the channel only if the waiter
// had announced itself as a sleeper; the waiter returns as soon as it
// loads fed, and otherwise moves the state from empty to sleeper before
// it blocks on the channel. No wakeup can be lost: the value is stored
// before the swap, and the waiter's CAS either finds fed (and reads the
// value without blocking) or leaves sleeper for the completer's swap to
// find. Exactly one completer feeds a slot per use, and its one waiter
// empties it again when it takes the value (take), so a recycled record
// holds an empty slot and a drained channel.
type slot[T any] struct {
	val   T
	state atomic.Int32
	wake  chan struct{} // buffer 1: the completer's send never blocks
}

// Slot states.
const (
	slotEmpty   int32 = iota // not completed, no sleeper
	slotFed                  // val holds the completion
	slotSleeper              // the waiter is blocked on wake
)

// feed completes the slot. The record may be recycled by its waiter as
// soon as the swap lands, unless the waiter sleeps, in which case it is
// still blocked on wake until the send.
func (s *slot[T]) feed(v T) {
	s.val = v
	if s.state.Swap(slotFed) == slotSleeper {
		s.wake <- struct{}{}
	}
}

// fed reports whether the slot holds its completion.
func (s *slot[T]) fed() bool { return s.state.Load() == slotFed }

// take returns the completion of a fed slot and empties it for the
// record's next use.
func (s *slot[T]) take() T {
	s.state.Store(slotEmpty)
	return s.val
}

// Record recycling for the matcher fast path. A large run posts
// millions of sends and receives; recycling the request records (each
// carrying its slot's buffered channel and its queue link) and the
// eager-send payload snapshots keeps the steady state allocation-free.
// A record is recycled only after its waiter took the completion (or,
// for fire-and-forget eager sends, never fed), so a recycled record's
// slot is empty and its channel drained. On a live event-engine Run the
// records go round the scheduler's own free lists (evSched.msgs and
// rrs, event.go), which only the driver thread touches; everywhere else
// — the goroutine engine, code outside any Run, an abort walk outside
// the driver — they go round these process-wide pools, which also
// carry records from one world to the next.
var (
	msgPool = sync.Pool{New: func() any {
		m := new(message)
		m.done.wake = make(chan struct{}, 1)
		m.q.msg = m
		return m
	}}
	recvReqPool = sync.Pool{New: func() any {
		r := new(recvReq)
		r.result.wake = make(chan struct{}, 1)
		r.q.rr = r
		return r
	}}
	eagerBytesPool sync.Pool // of *[]byte
)

// feed delivers a rendezvous send's completion time (or a sentinel)
// through its slot and readies the sender. The rank is read first: once
// the slot is fed the poster owns the record again and may already be
// recycling it.
func (m *message) feed(w *World, at sim.Time) {
	src := m.src
	m.done.feed(at)
	w.wake(src)
}

// feed is message.feed for a receive record.
func (r *recvReq) feed(w *World, res recvResult) {
	dst := r.dst
	r.result.feed(res)
	w.wake(dst)
}

func (w *World) getMessage() *message {
	if w.evLive {
		if n := w.ev.msgs.pop(); n != nil {
			return n.msg
		}
	}
	return msgPool.Get().(*message)
}

// putMessage recycles a message whose slot is empty: never fed (an
// eager send), or taken by its waiter.
func (w *World) putMessage(m *message) {
	m.data = Buf{}
	m.store = nil
	if w.evLive {
		w.ev.msgs.push(&m.q)
		return
	}
	msgPool.Put(m)
}

func (w *World) getRecvReq() *recvReq {
	if w.evLive {
		if n := w.ev.rrs.pop(); n != nil {
			return n.rr
		}
	}
	return recvReqPool.Get().(*recvReq)
}

// putRecvReq recycles a receive record whose completion was taken.
func (w *World) putRecvReq(r *recvReq) {
	r.buf = Buf{}
	if w.evLive {
		w.ev.rrs.push(&r.q)
		return
	}
	recvReqPool.Put(r)
}

// cloneEager snapshots a real payload into pooled scratch storage so
// the sender may immediately reuse its buffer. The returned pointer is
// the pool token to release via putEagerStore once the copy lands;
// size-only payloads need no snapshot and return nil.
func cloneEager(b Buf) (Buf, *[]byte) {
	if !b.Real() {
		return b, nil
	}
	n := b.Len()
	if p, ok := eagerBytesPool.Get().(*[]byte); ok {
		// Grow an undersized token in place rather than dropping it:
		// pooled buffers converge to the largest payload size and
		// mixed-size workloads stay allocation-free at steady state.
		if cap(*p) < n {
			*p = make([]byte, n)
		}
		s := (*p)[:n]
		copy(s, b.Raw())
		return Bytes(s), p
	}
	s := make([]byte, n)
	copy(s, b.Raw())
	return Bytes(s), &s
}

func putEagerStore(p *[]byte) { eagerBytesPool.Put(p) }

// abortClock, failClock and revokedClock are the poison timestamps fed
// to blocked waiters when the job aborts, the peer they wait on dies, or
// their communicator is revoked: instead of every wait being a two-way
// select against an abort signal (the select machinery is measurable
// on the hot path), Context.fail walks the queues once and feeds each
// parked waiter its sentinel through the slot it already waits on.
// Legitimate completion times are never negative; failErr
// (fault.go) is the one place that maps the sentinels back to errors.
const (
	abortClock   = sim.Time(math.MinInt64)
	failClock    = sim.Time(math.MinInt64 + 1)
	revokedClock = sim.Time(math.MinInt64 + 2)
)

// matcher pairs posted sends with posted receives. The queues it
// matches in are the contexts' own (Context.queues, one per executing
// member, each with its lock); the matcher holds only what is the
// world's: the fold unit and the flags every post checks. A post takes
// its queue's lock only where another thread can reach the queue: on
// the goroutine engine, or outside any Run. On a live event-engine Run
// the driver thread is the only code that touches the queues (an abort
// from outside leaves its walk to the driver, World.Abort).
type matcher struct {
	fold    int // rank-symmetry fold unit, 0 when unfolded (fold.go)
	aborted atomic.Bool

	// Fault-injection state (fault.go): per-global-rank death flags
	// (nil unless the world schedules failures). Like a context's state
	// they are checked under the queue lock on posts (or on the driver
	// thread) so a post either precedes the corresponding purge walk
	// (which then fails it) or observes the flag.
	dead []atomic.Bool
}

// rankQueue holds the unmatched sends and receives targeting one
// (context, destination) pair, under its own lock (see matcher for when
// it is taken), in one list in posting order: each kind keeps MPI's
// non-overtaking order. The list runs through the records themselves
// (qnode), so a queue that lives for one collective call costs no
// storage beyond its two ends.
type rankQueue struct {
	mu         sync.Mutex
	head, tail *qnode
}

// qnode is an unmatched record's link in its rank queue: next is the
// record posted after it (nil while the record is in no queue), and
// exactly one of msg and rr points back at the record that embeds the
// node. The back pointer is set once, when the pool makes the record; a
// record sits in at most one queue. A recycled record that waits on an
// event scheduler's free list (freeList, event.go) is in no queue, and
// the list links it through the same next.
type qnode struct {
	next *qnode
	msg  *message
	rr   *recvReq
}

// push appends n, which is in no queue, at the tail.
func (q *rankQueue) push(n *qnode) {
	if q.tail == nil {
		q.head = n
	} else {
		q.tail.next = n
	}
	q.tail = n
}

// unlink removes n, whose predecessor is prev (nil when n is the head).
func (q *rankQueue) unlink(prev, n *qnode) {
	if prev == nil {
		q.head = n.next
	} else {
		prev.next = n.next
	}
	if q.tail == n {
		q.tail = prev
	}
	n.next = nil
}

// queue returns the queue of the member at comm rank dst. Under folding
// only the leading exec members execute, and a destination past them
// stands for its class representative, which posts the translated
// receive (fold.go): on the periodic tables InitContexts admits, that
// is comm rank dst mod exec.
func (cx *Context) queue(dst int) *rankQueue {
	if dst >= cx.exec {
		dst %= cx.exec
	}
	return &cx.queues[dst]
}

// matches reports whether a posted receive accepts a message.
func (r *recvReq) matches(m *message) bool {
	if r.srcGlobal != AnySource && r.srcGlobal != m.src {
		return false
	}
	return r.tag == AnyTag || r.tag == m.tag
}

// accepts is the matching rule, folded-mode aware. Under folding only
// class representatives post, so a receive expecting source s pairs
// with the representative message standing for s's class: same
// crossedness (both sides inside the fold unit, or both across it) and
// s's class equals the message's source (representatives always send
// from ranks < u, so s%u == m.src is the uniform check for both the
// in-unit exact match and the crossed class match). The translated
// receive a representative posts for an incoming crossed message is
// exactly the one whose expected source lies in the sender
// representative's class, so costs and clocks line up — see fold.go.
func (m *matcher) accepts(r *recvReq, msg *message) bool {
	if u := m.fold; u > 0 && r.srcGlobal != AnySource {
		if (msg.dst >= u) != (r.srcGlobal >= u) || r.srcGlobal%u != msg.src {
			return false
		}
		return r.tag == AnyTag || r.tag == msg.tag
	}
	return r.matches(msg)
}

// postSend enqueues a send to comm rank dst or pairs it with a waiting
// receive. It returns the matched receive (nil if queued), or the error
// of the flag it observed under the queue lock (see fail). owned says
// the caller runs on a live event Run's driver thread, which owns the
// queue outright, so no lock is taken (World.evLive).
func (m *matcher) postSend(cx *Context, dst int, msg *message, owned bool) (*recvReq, error) {
	q := cx.queue(dst)
	if !owned {
		q.mu.Lock()
		defer q.mu.Unlock()
	}
	if m.aborted.Load() {
		return nil, ErrAborted
	}
	if cx.state.Load() != ctxLive {
		return nil, cx.refusal(true)
	}
	var prev *qnode
	for n := q.head; n != nil; prev, n = n, n.next {
		if r := n.rr; r != nil && m.accepts(r, msg) {
			q.unlink(prev, n)
			return r, nil
		}
	}
	// The dead check runs after the match scan: a receive the dead rank
	// posted before dying stays matchable (the outcome then depends
	// only on virtual program order, not on how the sender's post
	// interleaves with the death walk in host time).
	if m.dead != nil && m.dead[msg.dst].Load() {
		return nil, fmt.Errorf("mpi: send to failed rank %d: %w", msg.dst, ErrRankFailed)
	}
	q.push(&msg.q)
	return nil, nil
}

// postRecv enqueues a receive posted by comm rank me or pairs it with a
// waiting send. It returns the matched send (nil if queued); the flags
// are checked, and the lock taken, as in postSend.
func (m *matcher) postRecv(cx *Context, me int, r *recvReq, owned bool) (*message, error) {
	q := cx.queue(me)
	if !owned {
		q.mu.Lock()
		defer q.mu.Unlock()
	}
	if m.aborted.Load() {
		return nil, ErrAborted
	}
	if cx.state.Load() != ctxLive {
		return nil, cx.refusal(true)
	}
	var prev *qnode
	for n := q.head; n != nil; prev, n = n, n.next {
		if msg := n.msg; msg != nil && m.accepts(r, msg) {
			q.unlink(prev, n)
			return msg, nil
		}
	}
	// After the scan, like postSend: a message the dead rank sent
	// before dying is still delivered (in-flight delivery, as ULFM
	// allows); only a receive that would have to wait on the dead rank
	// fails.
	if m.dead != nil && r.srcGlobal != AnySource && m.dead[r.srcGlobal].Load() {
		return nil, fmt.Errorf("mpi: receive from failed rank %d: %w", r.srcGlobal, ErrRankFailed)
	}
	q.push(&r.q)
	return nil, nil
}

// fail is the sentinel walk over one context's queues, behind abort,
// rank death and revocation alike: Revoke walks its own record, abort
// and death walk every live one (World.poison). Every queued record sel
// picks, by the global rank it is waiting on (a receive's source, a
// send's destination), leaves its queue, and its poster is fed the
// sentinel at through the record's slot, which it waits on now or will.
// Each caller publishes its flag first (matcher.aborted, dead,
// Context.state), and posts check the flags under the queue lock: a
// post either lands before the walk locks that queue, which then feeds
// it, or observes the flag, so a waiter is never stranded. On a live
// event Run the walk and every post run on the driver thread, one after
// the other, so the same holds without the lock.
//
// The walk selects on what a record waits for, not on who posted it:
// what a dead rank posted before dying stays matchable (in-flight
// delivery, as ULFM allows), so whether a peer pairs with it depends
// only on virtual program order, never on how the peer's post
// interleaves with the walk in host time. Receives from AnySource wait
// on no rank and only fail with their context or the job.
func (cx *Context) fail(w *World, at sim.Time, sel func(peer int) bool) {
	for i := range cx.queues {
		q := &cx.queues[i]
		q.mu.Lock()
		var prev *qnode
		for n := q.head; n != nil; {
			// Unlink before feeding: a fed record may be recycled at once,
			// so neither it nor its link is touched after the feed.
			next := n.next
			if rr := n.rr; rr != nil && sel(rr.srcGlobal) {
				q.unlink(prev, n)
				rr.feed(w, recvResult{at: at})
			} else if msg := n.msg; msg != nil && sel(msg.dst) {
				q.unlink(prev, n)
				if msg.eager {
					// Fire-and-forget: nobody waits on it, recycle.
					if msg.store != nil {
						putEagerStore(msg.store)
					}
					w.putMessage(msg)
				} else {
					msg.feed(w, at)
				}
			} else {
				prev = n
			}
			n = next
		}
		q.mu.Unlock()
	}
}

// complete computes the virtual-time semantics of a matched pair, moves
// the data, and wakes both sides. Exactly one goroutine calls complete
// per pair (whichever posted second), so no further locking is needed.
//
// Eager messages (including flag signals) are fire-and-forget: the
// sender already charged its completion at post time and never waits on
// the done slot, so complete owns the message afterwards and recycles
// it (and any pooled payload snapshot). Rendezvous messages stay live
// until the sender's wait takes the completion off done.
func (w *World) complete(m *message, r *recvReq) {
	if m.flag {
		// Shared-memory flag: the signaler paid one store at post;
		// the waiter leaves as soon as the store lands, plus one
		// hot-line load.
		arrival := m.postClock + w.model.MemAlpha
		r.feed(w, recvResult{
			at:     sim.MaxTime(r.postClock, arrival) + w.model.MemAlpha/4,
			source: m.commSrc,
			tag:    m.tag,
		})
		w.putMessage(m)
		return
	}
	class := w.topo.Hop(m.src, m.dst)
	n := m.data.Len()
	if r.buf.Len() < n {
		n = r.buf.Len() // truncation: account only what lands
	}
	xfer := w.model.XferCost(class, n)
	if m.xferScale > 0 {
		// Congestion/jitter stretch drawn at post time in the sender's
		// program order (fault.go); a single float64 multiply keeps the
		// result bit-identical across engines and platforms.
		xfer = sim.Time(float64(xfer) * m.xferScale)
	}
	var sendDone, recvDone sim.Time
	if m.eager {
		// Sender fired and forgot at post time; the wire delay
		// runs concurrently with whatever the sender did next.
		arrival := m.postClock + w.model.SendOverhead + xfer
		recvDone = sim.MaxTime(r.postClock, arrival) + w.model.RecvOverhead
	} else {
		// Rendezvous: the transfer starts when both sides are
		// ready and both observe its completion.
		start := sim.MaxTime(m.postClock+w.model.SendOverhead, r.postClock)
		sendDone = start + xfer
		recvDone = sendDone + w.model.RecvOverhead
	}
	bytes := CopyData(r.buf, m.data)
	res := recvResult{at: recvDone, bytes: bytes, source: m.commSrc, tag: m.tag}
	if m.eager {
		if m.store != nil {
			putEagerStore(m.store)
		}
		w.putMessage(m)
	} else {
		m.feed(w, sendDone)
	}
	r.feed(w, res)
}

// pendingRecords counts the unmatched sends and receives queued on the
// live contexts — the folded-run tripwire (fold.go) and a test hook.
// Only meaningful between Runs.
func (w *World) pendingRecords() int {
	w.ctxMu.Lock()
	defer w.ctxMu.Unlock()
	total := 0
	for _, cx := range w.ctxs {
		for i := range cx.queues {
			for n := cx.queues[i].head; n != nil; n = n.next {
				total++
			}
		}
	}
	return total
}

// SendFlag signals a same-node peer through a shared-memory flag: one
// cache-line store on the signaling side. It is the building block of
// the "light-weight means" of synchronization the paper discusses in
// Sect. 6 — ordering without message-transport costs. dst must live on
// the caller's node.
func (c *Comm) SendFlag(dst, tag int) error {
	if err := c.validRank(dst, false); err != nil {
		return err
	}
	w := c.p.world
	if !w.topo.SameNode(c.p.rank, c.cx.ranks[dst]) {
		return fmt.Errorf("mpi: SendFlag to rank %d on another node", dst)
	}
	msg := w.getMessage()
	msg.src, msg.dst, msg.commSrc, msg.tag = c.p.rank, c.cx.ranks[dst], c.rank, tag
	msg.data, msg.store = Sized(0), nil
	msg.eager, msg.flag = true, true
	msg.xferScale, msg.postClock = 0, c.p.clock
	r, err := w.match.postSend(c.cx, dst, msg, w.evLive)
	if err != nil {
		w.putMessage(msg)
		return err
	}
	if r != nil {
		w.complete(msg, r)
	}
	c.p.advance(w.model.MemAlpha) // the flag store
	return nil
}

// RecvFlag blocks until the matching SendFlag from src lands (modeled
// as spinning on the shared flag).
func (c *Comm) RecvFlag(src, tag int) error {
	if err := c.validRank(src, false); err != nil {
		return err
	}
	if !c.p.world.topo.SameNode(c.p.rank, c.cx.ranks[src]) {
		return fmt.Errorf("mpi: RecvFlag from rank %d on another node", src)
	}
	rr, err := c.postRecvReq(Sized(0), src, tag)
	if err != nil {
		return err
	}
	_, err = c.p.waitRecvReq(rr)
	return err
}

// Send posts a blocking standard-mode send on the communicator. Small
// messages (<= the model's eager limit) buffer and return immediately;
// large messages rendezvous with the matching receive, exactly like the
// protocols the cost model mimics.
func (c *Comm) Send(buf Buf, dst, tag int) error {
	msg, err := c.postSendMsg(buf, dst, tag)
	if err != nil || msg == nil {
		return err
	}
	return c.p.waitSendMsg(msg)
}

// Recv posts a blocking receive. src may be a comm rank or AnySource;
// tag may be AnyTag.
func (c *Comm) Recv(buf Buf, src, tag int) (Status, error) {
	rr, err := c.postRecvReq(buf, src, tag)
	if err != nil {
		return Status{}, err
	}
	return c.p.waitRecvReq(rr)
}

// Sendrecv posts the receive, then the send, then completes both — the
// deadlock-free exchange the ring and recursive-doubling collectives are
// built on.
func (c *Comm) Sendrecv(sendBuf Buf, dst, sendTag int, recvBuf Buf, src, recvTag int) (Status, error) {
	rr, err := c.postRecvReq(recvBuf, src, recvTag)
	if err != nil {
		return Status{}, err
	}
	if err := c.Send(sendBuf, dst, sendTag); err != nil {
		return Status{}, err
	}
	return c.p.waitRecvReq(rr)
}

// validRank checks a comm rank argument.
func (c *Comm) validRank(r int, wildcardOK bool) error {
	if wildcardOK && r == AnySource {
		return nil
	}
	if r < 0 || r >= c.Size() {
		return fmt.Errorf("mpi: rank %d out of range on %d-rank communicator", r, c.Size())
	}
	return nil
}
