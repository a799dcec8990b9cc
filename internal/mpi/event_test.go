package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// The discrete-event backend must be observationally identical to the
// goroutine backend: every virtual clock bit-identical on every
// workload, aborts delivered, worlds re-runnable across engine
// switches without leaking pooled records. These tests drive the same
// bodies through both engines and diff the full per-rank clock vector.

// mixedBody exercises every park site the event scheduler converted:
// blocking Sendrecv (eager and rendezvous), crossed Isend/Irecv with
// Wait and with a Test polling loop (the yield path), the dissemination
// barrier, a nonblocking schedule driven by Test (Sched.poll's yield
// path) and a clock fusion.
func mixedBody(iters int) func(p *Proc) error {
	return func(p *Proc) error {
		c := p.CommWorld()
		n := c.Size()
		rank := c.Rank()
		right, left := (rank+1)%n, (rank-1+n)%n
		for i := 0; i < iters; i++ {
			p.Compute(500)
			if _, err := c.Sendrecv(Sized(64+i*8), right, 7, Sized(64+i*8), left, 7); err != nil {
				return err
			}
			rq, err := c.Irecv(Sized(32), left, 8)
			if err != nil {
				return err
			}
			sq, err := c.Isend(Sized(32), right, 8)
			if err != nil {
				return err
			}
			if err := Waitall(rq, sq); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		// Rendezvous pair completed through a Test polling loop: on the
		// single-threaded engine the loop must hand control off (yield)
		// or the partner could never post its matching operation.
		big := Sized(1 << 20)
		rq, err := c.Irecv(big, left, 9)
		if err != nil {
			return err
		}
		sq, err := c.Isend(big, right, 9)
		if err != nil {
			return err
		}
		for {
			ok, _, err := rq.Test()
			if err != nil {
				return err
			}
			if ok {
				break
			}
		}
		if _, err := sq.Wait(); err != nil {
			return err
		}
		// Nonblocking schedule overlapped with local compute, driven by
		// Test to completion.
		s := c.NewSched([]Round{{Ops: []SchedOp{
			SchedRecv(Sized(128), left, 1),
			SchedSend(Sized(128), right, 1),
		}}})
		if err := s.Start(); err != nil {
			return err
		}
		p.Compute(5000)
		for {
			ok, err := s.Test()
			if err != nil {
				return err
			}
			if ok {
				break
			}
		}
		p.AwaitTime(c.FuseClocks(p.Clock()))
		return nil
	}
}

// perRankClocks runs body on a fresh world and returns every rank's
// final virtual clock.
func perRankClocks(t *testing.T, topo *sim.Topology, e sim.Engine, body func(p *Proc) error, opts ...Option) []sim.Time {
	t.Helper()
	w, err := NewWorld(sim.HazelHenCray(), topo, append([]Option{WithEngine(e)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	clocks := make([]sim.Time, topo.Size())
	for r := range clocks {
		clocks[r] = w.procs[r].Clock()
	}
	return clocks
}

func diffClocks(t *testing.T, label string, got, want []sim.Time) {
	t.Helper()
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("%s: rank %d clock %d ps, want %d ps", label, r, int64(got[r]), int64(want[r]))
		}
	}
}

func TestEventEngineClocksIdentical(t *testing.T) {
	topo := sim.MustUniform(4, 4)
	want := perRankClocks(t, topo, sim.EngineGoroutine, mixedBody(3))
	got := perRankClocks(t, topo, sim.EngineEvent, mixedBody(3))
	diffClocks(t, "event vs goroutine", got, want)
}

func TestEventEngineClocksIdenticalIrregular(t *testing.T) {
	// Irregular node populations: folding can never apply here
	// (FoldUnit reports 0), but the event engine itself must still
	// reproduce the goroutine timeline exactly.
	topo, err := sim.NewTopology([]int{3, 5, 4, 1})
	if err != nil {
		t.Fatal(err)
	}
	if topo.FoldUnit() != 0 {
		t.Fatalf("irregular topology reports fold unit %d, want 0", topo.FoldUnit())
	}
	want := perRankClocks(t, topo, sim.EngineGoroutine, mixedBody(2))
	got := perRankClocks(t, topo, sim.EngineEvent, mixedBody(2))
	diffClocks(t, "event vs goroutine (irregular)", got, want)
}

func TestEventEngineAbort(t *testing.T) {
	w, err := NewWorld(sim.HazelHenCray(), sim.MustUniform(2, 4), WithEngine(sim.EngineEvent))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			p.Elapse(1)
			p.World().Abort()
			return nil
		}
		// Never satisfied: rank 0 aborts instead of sending. The abort
		// must wake every parked rank (poisoned matcher records plus the
		// scheduler's abort wake), not hang the single-threaded engine.
		_, err := p.CommWorld().Recv(Sized(8), 0, 99)
		return err
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("Run after Abort returned %v, want ErrAborted", err)
	}
	if _, err := NewWorld(sim.HazelHenCray(), sim.MustUniform(2, 4), WithEngine(sim.EngineEvent)); err != nil {
		t.Fatalf("fresh world after aborted one: %v", err)
	}
}

// TestEngineSwitchRerun is the re-run satellite: a world must survive
// goroutine -> event -> goroutine engine switches across Runs with
// clocks continuing exactly as if one engine had run throughout, and
// with no rendezvous round or matcher record left behind by
// either backend.
func TestEngineSwitchRerun(t *testing.T) {
	topo := sim.MustUniform(2, 4)
	ref, err := NewWorld(sim.HazelHenCray(), topo)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	w, err := NewWorld(sim.HazelHenCray(), topo)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	body := mixedBody(2)
	for i, e := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent, sim.EngineGoroutine, sim.EngineEvent} {
		if err := ref.Run(body); err != nil {
			t.Fatal(err)
		}
		w.engine = e
		if err := w.Run(body); err != nil {
			t.Fatalf("run %d (%v): %v", i, e, err)
		}
		if n := liveRounds(w); n != 0 {
			t.Fatalf("run %d (%v): %d rendezvous rounds still live", i, e, n)
		}
		if n := w.pendingRecords(); n != 0 {
			t.Fatalf("run %d (%v): %d matcher records still queued", i, e, n)
		}
		for r := 0; r < topo.Size(); r++ {
			if got, want := w.procs[r].Clock(), ref.procs[r].Clock(); got != want {
				t.Fatalf("run %d (%v): rank %d clock %d ps, want %d ps", i, e, r, int64(got), int64(want))
			}
		}
	}
}

// TestEventEngineRunAllocationLean pins the steady-state allocation
// cost of an event-engine Run: the driver resumes the rank coroutines
// the first Run created, and messages ride pooled matcher records, so
// repeated Runs must not accumulate per-rank state.
func TestEventEngineRunAllocationLean(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	w, err := NewWorld(sim.HazelHenCray(), sim.MustUniform(1, 4), WithEngine(sim.EngineEvent))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	body := func(p *Proc) error {
		c := p.CommWorld()
		n := c.Size()
		right, left := (p.Rank()+1)%n, (p.Rank()-1+n)%n
		for i := 0; i < 4; i++ {
			if _, err := c.Sendrecv(Sized(64), right, 7, Sized(64), left, 7); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < 32; i++ {
		if err := w.Run(body); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := w.Run(body); err != nil {
			t.Fatal(err)
		}
	})
	if avg >= 24 {
		t.Errorf("event-engine Run allocates %.1f objects/op in steady state, want < 24", avg)
	}
}

// TestEventDeadlockReturnsErrDeadlock runs programs in which every
// unfinished rank ends up parked with no event left to wake it: a ring
// where every rank receives on a tag nobody sends, and a rank blocked in
// a rendezvous Send nobody receives while the others wait for it in a
// clock fusion's rendezvous round. The Run must return an ErrDeadlock
// naming each parked rank, with one line per rank saying what it waits
// on, instead of hanging, and leave the world poisoned so no pool reuses
// it.
func TestEventDeadlockReturnsErrDeadlock(t *testing.T) {
	ring := func(p *Proc) error {
		c := p.CommWorld()
		n, rank := c.Size(), c.Rank()
		if err := c.Send(Sized(8), (rank+1)%n, 1); err != nil {
			return err
		}
		_, err := c.Recv(Sized(8), (rank-1+n)%n, 2)
		return err
	}
	ringLines := make([]string, 8)
	for r := range ringLines {
		ringLines[r] = fmt.Sprintf("rank %d: recv from %d tag 2", r, (r+7)%8)
	}
	sendThenRound := func(p *Proc) error {
		c := p.CommWorld()
		if c.Rank() == 0 {
			return c.Send(Sized(2*p.World().model.EagerLimit), 1, 3)
		}
		c.FuseClocks(p.Clock())
		return nil
	}
	for _, tc := range []struct {
		name   string
		topo   *sim.Topology
		body   func(p *Proc) error
		parked string
		lines  []string
	}{
		{"recv ring", sim.MustUniform(2, 4), ring, "ranks [0 1 2 3 4 5 6 7] parked", ringLines},
		{"send and round", sim.MustUniform(1, 4), sendThenRound, "ranks [0 1 2 3] parked",
			[]string{"rank 0: send to 1 tag 3", "rank 1: rendezvous round", "rank 2: rendezvous round", "rank 3: rendezvous round"}},
	} {
		w, err := NewWorld(sim.HazelHenCray(), tc.topo, WithEngine(sim.EngineEvent))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		err = w.Run(tc.body)
		if took := time.Since(start); took > 500*time.Millisecond {
			t.Errorf("%s: deadlocked Run took %v to return", tc.name, took)
		}
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("%s: deadlocked Run returned %v, want ErrDeadlock", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.parked) {
			t.Errorf("%s: deadlock report does not name every parked rank: %v", tc.name, err)
		}
		for _, line := range tc.lines {
			if !strings.Contains(err.Error(), "\n\t"+line) {
				t.Errorf("%s: deadlock report lacks %q: %v", tc.name, line, err)
			}
		}
		if !w.Aborted() {
			t.Errorf("%s: deadlocked world is not poisoned", tc.name)
		}
		if err := w.Run(func(p *Proc) error { return nil }); !errors.Is(err, ErrAborted) {
			t.Errorf("%s: Run after deadlock returned %v, want ErrAborted", tc.name, err)
		}
		w.Close()
	}
}

// TestAbortFromOutside aborts a Run from a goroutine outside it while
// ranks wait in every kind of p2p wait: a blocking Recv, a rendezvous
// Send, Irecv+Wait, a Sched.Wait, and a Test polling loop that keeps the
// event engine's ready ring busy so its driver cannot call the run a
// deadlock first. The abort walk feeds the poller's record (queue 0)
// first and its rendezvous Isend to rank 7 (queue 7) last, behind the
// backlog ranks 5 and 6 left in their queues; the poller Waits on that
// Isend as soon as its poll fails, so on the goroutine engine it can
// find its record not yet fed and sleep on the record's channel until
// the walk gets there. On the event engine the outside Abort only
// publishes the flag, and the driver walks before it resumes anyone.
func TestAbortFromOutside(t *testing.T) {
	const backlog = 4096 // unmatched receives each of ranks 5 and 6 leaves queued
	for _, e := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
		base := runtime.NumGoroutine()
		w, err := NewWorld(sim.HazelHenCray(), sim.MustUniform(2, 4), WithEngine(e))
		if err != nil {
			t.Fatal(err)
		}
		big := Sized(2 * w.model.EagerLimit)
		var posted atomic.Int32 // ranks 0..6 count in once their waits are posted
		var pollErr error
		aborted := make(chan time.Time)
		go func() {
			for posted.Load() < 7 {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(10 * time.Millisecond) // let the waiters block
			at := time.Now()
			w.Abort()
			aborted <- at
		}()
		err = w.Run(func(p *Proc) error {
			c := p.CommWorld()
			switch p.Rank() {
			case 0:
				rq, err := c.Irecv(Sized(8), 7, 0)
				if err != nil {
					return err
				}
				sq, err := c.Isend(big, 7, 0)
				if err != nil {
					return err
				}
				posted.Add(1)
				for {
					ok, _, err := rq.Test()
					if err != nil {
						pollErr = err
						break
					}
					if ok {
						return errors.New("poll completed without a sender")
					}
				}
				_, err = sq.Wait()
				return err
			case 1:
				posted.Add(1)
				_, err := c.Recv(Sized(8), 7, 1)
				return err
			case 2:
				posted.Add(1)
				return c.Send(big, 7, 2)
			case 3:
				rq, err := c.Irecv(big, 7, 3)
				if err != nil {
					return err
				}
				posted.Add(1)
				_, err = rq.Wait()
				return err
			case 4:
				s := c.NewSched([]Round{{Ops: []SchedOp{SchedRecv(Sized(8), 7, 4)}}})
				if err := s.Start(); err != nil {
					return err
				}
				posted.Add(1)
				return s.Wait()
			case 5, 6:
				for range backlog {
					if _, err := c.Irecv(Sized(8), 7, 5); err != nil {
						return err
					}
				}
				posted.Add(1)
			}
			return nil
		})
		at := <-aborted
		if took := time.Since(at); took > time.Second {
			t.Errorf("%v: Run returned %v after the outside Abort", e, took)
		}
		if !errors.Is(err, ErrAborted) || errors.Is(err, ErrDeadlock) {
			t.Errorf("%v: Run returned %v, want ErrAborted and no deadlock", e, err)
		}
		for r := range 5 {
			if !strings.Contains(err.Error(), fmt.Sprintf("rank %d: ", r)) {
				t.Errorf("%v: rank %d not unwound with its own error: %v", e, r, err)
			}
		}
		if !errors.Is(pollErr, ErrAborted) {
			t.Errorf("%v: Test poll returned %v, want ErrAborted", e, pollErr)
		}
		w.Close()
		if !settlesTo(base) {
			t.Errorf("%v: %d goroutines after Close, want %d", e, runtime.NumGoroutine(), base)
		}
	}
}

// TestLostWakeupStressMatchesEventEngine hammers the slot protocol on
// the goroutine engine, where completer and waiter race for real: a
// 64-rank ring of rendezvous Sendrecvs mixed with Isend/Irecv pairs
// completed through a Test poll. A lost wakeup hangs the Run; a value
// read before its feed shows up as a clock that differs from the event
// engine's, where the same program runs one rank at a time.
func TestLostWakeupStressMatchesEventEngine(t *testing.T) {
	const iters = 2000
	topo := sim.MustUniform(4, 16)
	body := func(p *Proc) error {
		c := p.CommWorld()
		n, rank := c.Size(), c.Rank()
		right, left := (rank+1)%n, (rank-1+n)%n
		big := p.World().model.EagerLimit + 1
		for i := range iters {
			size := big + (i%7)*64
			if _, err := c.Sendrecv(Sized(size), right, 1, Sized(size), left, 1); err != nil {
				return err
			}
			if i%2 == 1 {
				size = 64 // eager: the Isend completes at post
			}
			rq, err := c.Irecv(Sized(size), left, 2)
			if err != nil {
				return err
			}
			sq, err := c.Isend(Sized(size), right, 2)
			if err != nil {
				return err
			}
			for {
				ok, _, err := rq.Test()
				if err != nil {
					return err
				}
				if ok {
					break
				}
				runtime.Gosched() // 64 spinning ranks share GOMAXPROCS
			}
			if _, err := sq.Wait(); err != nil {
				return err
			}
		}
		return nil
	}
	want := perRankClocks(t, topo, sim.EngineEvent, body)
	got := perRankClocks(t, topo, sim.EngineGoroutine, body)
	diffClocks(t, "goroutine vs event", got, want)
}

// TestEventRecordsSurviveGC pins where a live event Run's message and
// receive records come from: the scheduler's free lists, which a GC
// does not empty the way it empties a sync.Pool. After warm-up and two
// collections (the second clears the pools' victim caches), a ring of
// Sendrecvs must make no new record.
func TestEventRecordsSurviveGC(t *testing.T) {
	w, err := NewWorld(sim.HazelHenCray(), sim.MustUniform(1, 4), WithEngine(sim.EngineEvent))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	body := func(p *Proc) error {
		c := p.CommWorld()
		n := c.Size()
		right, left := (p.Rank()+1)%n, (p.Rank()-1+n)%n
		for range 4 {
			if _, err := c.Sendrecv(Sized(64), right, 7, Sized(64), left, 7); err != nil {
				return err
			}
		}
		return nil
	}
	for range 2 {
		if err := w.Run(body); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	var made atomic.Int32
	newMsg, newRR := msgPool.New, recvReqPool.New
	msgPool.New = func() any { made.Add(1); return newMsg() }
	recvReqPool.New = func() any { made.Add(1); return newRR() }
	defer func() { msgPool.New, recvReqPool.New = newMsg, newRR }()
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	if n := made.Load(); n != 0 {
		t.Errorf("a warm event Run after a GC made %d message and receive records, want 0", n)
	}
}

// TestEventFreeListsCapped runs a Run whose sender leaves a thousand
// eager messages queued before the receiver drains them: the Run
// recycles every one through the scheduler's lists, and the Run's end
// leaves at most one record of each kind per rank there for the world
// to keep.
func TestEventFreeListsCapped(t *testing.T) {
	const sends = 1000
	w, err := NewWorld(sim.HazelHenCray(), sim.MustUniform(1, 2), WithEngine(sim.EngineEvent))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(p *Proc) error {
		c := p.CommWorld()
		for i := range sends {
			if p.Rank() == 0 {
				if err := c.Send(Sized(8), 1, i); err != nil {
					return err
				}
			} else if _, err := c.Recv(Sized(8), 0, i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := w.pendingRecords(); n != 0 {
		t.Fatalf("%d records still queued after the drain", n)
	}
	if got, want := w.ev.msgs.n, w.Size(); got != want {
		t.Errorf("message free list holds %d records after %d queued sends, want the cap %d", got, sends, want)
	}
	if got := w.ev.rrs.n; got < 1 || got > w.Size() {
		t.Errorf("receive free list holds %d records, want 1 to %d", got, w.Size())
	}
}
