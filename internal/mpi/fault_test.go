package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// noisyWorld builds a world with the given noise config on a 2x4 grid.
func noisyWorld(t *testing.T, n *sim.Noise, opts ...Option) *World {
	t.Helper()
	opts = append(opts, WithNoise(n), WithRealData())
	w, err := NewWorld(sim.Laptop(), sim.MustUniform(2, 4), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// pingRing runs one compute+ring-exchange step per rank and returns the
// makespan.
func pingRing(t *testing.T, w *World) sim.Time {
	t.Helper()
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		p.Compute(1e6)
		// Separate buffers: receiving into the buffer being sent is
		// erroneous MPI (the delivery races the send's read of it).
		sbuf, rbuf := w.NewBuf(4096), w.NewBuf(4096)
		next, prev := (p.Rank()+1)%p.Size(), (p.Rank()+p.Size()-1)%p.Size()
		rq, err := c.Irecv(rbuf, prev, 7)
		if err != nil {
			return err
		}
		if err := c.Send(sbuf, next, 7); err != nil {
			return err
		}
		_, err = rq.Wait()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.MaxClock()
}

func TestNoiseDeterministicAcrossEnginesAndReruns(t *testing.T) {
	n := &sim.Noise{Seed: 11, Jitter: 0.3, Stragglers: []int{5}, StragglerFactor: 4,
		Congestion: map[sim.HopClass]float64{sim.HopNet: 2}}
	var clocks [2]sim.Time
	for i, eng := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
		w := noisyWorld(t, n, WithEngine(eng))
		first := pingRing(t, w)
		// Warm rerun: ResetClocks must give a bit-identical timeline.
		w.ResetClocks()
		if again := pingRing(t, w); again != first {
			t.Fatalf("engine %v: warm rerun %v != cold run %v", eng, again, first)
		}
		clocks[i] = first
	}
	if clocks[0] != clocks[1] {
		t.Fatalf("engines disagree under noise: goroutine %v, event %v", clocks[0], clocks[1])
	}

	// A different seed must actually change the timeline.
	other := &sim.Noise{Seed: 12, Jitter: 0.3, Stragglers: []int{5}, StragglerFactor: 4,
		Congestion: map[sim.HopClass]float64{sim.HopNet: 2}}
	if c := pingRing(t, noisyWorld(t, other)); c == clocks[0] {
		t.Fatalf("seed change did not change the makespan (%v)", c)
	}
}

func TestNoiseSlowsThingsDown(t *testing.T) {
	clean := pingRing(t, noisyWorld(t, nil))
	congested := pingRing(t, noisyWorld(t,
		&sim.Noise{Congestion: map[sim.HopClass]float64{sim.HopNet: 8, sim.HopShm: 8}}))
	if congested <= clean {
		t.Errorf("congestion did not slow the ring: clean %v, congested %v", clean, congested)
	}
	straggled := pingRing(t, noisyWorld(t,
		&sim.Noise{Stragglers: []int{0}, StragglerFactor: 64}))
	if straggled <= clean {
		t.Errorf("straggler did not slow the ring: clean %v, straggled %v", clean, straggled)
	}
	jittered := pingRing(t, noisyWorld(t, &sim.Noise{Seed: 3, Jitter: 1.5}))
	if jittered <= clean {
		t.Errorf("jitter did not slow the ring: clean %v, jittered %v", clean, jittered)
	}
}

func TestNoiseRejectsFoldedAsymmetry(t *testing.T) {
	_, err := NewWorld(sim.Laptop(), sim.MustUniform(2, 4),
		withFold(4), WithNoise(&sim.Noise{Seed: 1, Jitter: 0.1}))
	if !errors.Is(err, ErrFoldUnsafe) {
		t.Fatalf("jitter+fold accepted: %v", err)
	}
	// Congestion preserves rank symmetry and must stay foldable.
	w, err := NewWorld(sim.Laptop(), sim.MustUniform(2, 4),
		withFold(4), WithNoise(&sim.Noise{Congestion: map[sim.HopClass]float64{sim.HopNet: 2}}))
	if err != nil {
		t.Fatalf("congestion-only noise rejected under folding: %v", err)
	}
	w.Close()
}

func TestRankFailureP2P(t *testing.T) {
	for _, eng := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
		w := noisyWorld(t, &sim.Noise{Failures: []sim.Failure{{Rank: 1, At: 0}}},
			WithEngine(eng))
		errs := make([]error, w.Size())
		err := w.Run(func(p *Proc) error {
			c := p.CommWorld()
			switch p.Rank() {
			case 0:
				// Blocking receive from the rank that dies at its first
				// operation boundary.
				_, err := c.Recv(w.NewBuf(8), 1, 1)
				errs[0] = err
				return err
			case 1:
				p.Compute(1e6) // dies here (deadline 0)
				t.Error("rank 1 survived its scheduled failure")
				return nil
			default:
				return nil
			}
		})
		if !errors.Is(err, ErrRankFailed) {
			t.Fatalf("engine %v: Run error = %v, want ErrRankFailed", eng, err)
		}
		if !errors.Is(errs[0], ErrRankFailed) {
			t.Fatalf("engine %v: rank 0 recv error = %v", eng, errs[0])
		}
		if !w.Damaged() {
			t.Errorf("engine %v: world not marked damaged", eng)
		}
		if dead := w.DeadRanks(); len(dead) != 1 || dead[0] != 1 {
			t.Errorf("engine %v: DeadRanks = %v", eng, dead)
		}
	}
}

func TestRankFailurePreDeathSendStillDelivered(t *testing.T) {
	// Rank 1 sends before its deadline passes; the in-flight message
	// must still reach rank 0 (ULFM allows completing such transfers).
	w := noisyWorld(t, &sim.Noise{Failures: []sim.Failure{{Rank: 1, At: sim.Millisecond}}})
	var got byte
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		switch p.Rank() {
		case 0:
			buf := w.NewBuf(1)
			if _, err := c.Recv(buf, 1, 1); err != nil {
				return err
			}
			got = buf.Raw()[0]
			return nil
		case 1:
			buf := w.NewBuf(1)
			buf.Raw()[0] = 42
			if err := c.Send(buf, 0, 1); err != nil {
				return err
			}
			p.Elapse(2 * sim.Millisecond)
			p.Compute(1) // past the deadline: dies
			return nil
		default:
			return nil
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 42 {
		t.Fatalf("pre-death payload lost: got %d", got)
	}
}

// queued lists the {source, tag} of every record queued for comm rank
// dst of cx, in list order — a send's sender and tag, a receive's
// expected source and tag — and fails unless the queue's tail is the
// last link.
func queued(cx *Context, dst int) ([][2]int, error) {
	q := cx.queue(dst)
	q.mu.Lock()
	defer q.mu.Unlock()
	var recs [][2]int
	var last *qnode
	for n := q.head; n != nil; last, n = n, n.next {
		if n.msg != nil {
			recs = append(recs, [2]int{n.msg.src, n.msg.tag})
		} else {
			recs = append(recs, [2]int{n.rr.srcGlobal, n.rr.tag})
		}
	}
	if q.tail != last {
		return recs, fmt.Errorf("queue %v: tail is not the last link", recs)
	}
	return recs, nil
}

// TestRankQueuePostingOrder pins the unmatched-record list of one rank
// queue on both engines: a receive matches from the middle, unlinking
// the tail leaves the next post reachable, and a death walk removes
// adjacent and non-adjacent records (the tail among them) while the
// survivors keep their posting order and still match.
func TestRankQueuePostingOrder(t *testing.T) {
	for _, eng := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
		w := noisyWorld(t, &sim.Noise{Failures: []sim.Failure{{Rank: 2, At: sim.Millisecond}}}, WithEngine(eng))
		expect := func(want ...[2]int) error {
			got, err := queued(w.worldCx, 0)
			if err == nil && !slices.Equal(got, want) {
				err = fmt.Errorf("rank 0's queue holds %v, want %v", got, want)
			}
			return err
		}
		matched := func(req *Request, src, tag int) error {
			st, err := req.Wait()
			if err == nil && (st.Source != src || st.Tag != tag) {
				err = fmt.Errorf("receive matched rank %d tag %d, want rank %d tag %d", st.Source, st.Tag, src, tag)
			}
			return err
		}
		err := w.Run(func(p *Proc) error {
			c := p.CommWorld()
			recv := func(src, tag int) *Request {
				req, err := c.Irecv(w.NewBuf(8), src, tag)
				if err != nil {
					panic(err)
				}
				return req
			}
			send := func(dst int, tags ...int) {
				for _, tag := range tags {
					if err := c.Send(w.NewBuf(8), dst, tag); err != nil { // eager
						panic(err)
					}
				}
			}
			switch p.Rank() {
			case 0:
				// Rank 0's queue is its own until it signals: ranks 1 to
				// 3 first wait on a flag, which queues on their own ranks.
				send(0, 1, 2, 3, 4)
				if err := matched(recv(0, 2), 0, 2); err != nil { // from the middle
					return err
				}
				if err := expect([2]int{0, 1}, [2]int{0, 3}, [2]int{0, 4}); err != nil {
					return err
				}
				if err := matched(recv(0, 4), 0, 4); err != nil { // the tail
					return err
				}
				send(0, 5)
				if err := expect([2]int{0, 1}, [2]int{0, 3}, [2]int{0, 5}); err != nil {
					return err
				}
				for _, tag := range []int{1, 3, 5} {
					if err := matched(recv(0, AnyTag), 0, tag); err != nil {
						return err
					}
				}
				if err := expect(); err != nil {
					return err
				}

				// Receives from 1, 2, 2, 1, 3, 2: rank 2's death takes two
				// adjacent ones and the tail.
				a, dead1, dead2, b, c3, dead3 := recv(1, AnyTag), recv(2, 20), recv(2, 21), recv(1, AnyTag), recv(3, 30), recv(2, 22)
				if err := c.SendFlag(2, 9); err != nil {
					return err
				}
				for _, req := range []*Request{dead1, dead2, dead3} {
					if _, err := req.Wait(); !errors.Is(err, ErrRankFailed) {
						return fmt.Errorf("receive from the dead rank: %v, want ErrRankFailed", err)
					}
				}
				if err := expect([2]int{1, AnyTag}, [2]int{1, AnyTag}, [2]int{3, 30}); err != nil {
					return err
				}
				for _, r := range []int{1, 3} {
					if err := c.SendFlag(r, 9); err != nil {
						return err
					}
				}
				return errors.Join(matched(a, 1, 11), matched(b, 1, 12), matched(c3, 3, 30))
			case 1, 2, 3:
				if err := c.RecvFlag(0, 9); err != nil {
					return err
				}
				switch p.Rank() {
				case 1:
					send(0, 11, 12, 13, 14) // the last two stay unreceived
				case 2:
					p.Elapse(2 * sim.Millisecond)
					p.Compute(1) // past the deadline: dies
				case 3:
					send(0, 30)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v engine: %v", eng, err)
		}
		if err := expect([2]int{1, 13}, [2]int{1, 14}); err != nil {
			t.Errorf("%v engine, after the Run: %v", eng, err)
		}
		if n := w.pendingRecords(); n != 2 {
			t.Errorf("%v engine: pendingRecords is %d after the Run, want the 2 unreceived sends", eng, n)
		}
	}
}

func TestRankFailureSendToDead(t *testing.T) {
	w := noisyWorld(t, &sim.Noise{Failures: []sim.Failure{{Rank: 2, At: 0}}})
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		switch p.Rank() {
		case 0:
			// Give the failure time to happen in virtual terms, then wait
			// on a flag from rank 3 so the send below is posted after rank
			// 2's death in host time too.
			if err := c.RecvFlag(3, 9); err != nil {
				return err
			}
			return c.Send(w.NewBuf(1<<20), 2, 1)
		case 2:
			p.Compute(1) // dies
			return nil
		case 3:
			p.Elapse(sim.Millisecond)
			return c.SendFlag(0, 9)
		default:
			return nil
		}
	})
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("Run error = %v, want ErrRankFailed", err)
	}
}

func TestRankFailureCollectiveAborts(t *testing.T) {
	for _, eng := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
		w := noisyWorld(t, &sim.Noise{Failures: []sim.Failure{{Rank: 3, At: 0}}},
			WithEngine(eng))
		err := w.Run(func(p *Proc) error {
			if p.Rank() == 3 {
				p.Compute(1) // dies
				return nil
			}
			p.CommWorld().FuseClocks(p.Clock())
			return nil
		})
		if !errors.Is(err, ErrRankFailed) && !errors.Is(err, ErrAborted) {
			t.Fatalf("engine %v: collective with dead member: %v", eng, err)
		}
	}
}

func TestRevokeFailsPendingAndFutureOps(t *testing.T) {
	w := noisyWorld(t, &sim.Noise{Failures: []sim.Failure{{Rank: 7, At: 0}}})
	errs := make([]error, w.Size())
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		switch p.Rank() {
		case 0:
			// Parked receive from a live rank that never sends; rank 1
			// revokes and this must wake with ErrRevoked.
			_, err := c.Recv(w.NewBuf(8), 5, 1)
			errs[0] = err
		case 1:
			p.Elapse(sim.Millisecond)
			c.Revoke()
			if !c.Revoked() {
				t.Error("Revoked() false after Revoke")
			}
			// Future ops on the revoked communicator fail too.
			errs[1] = c.Send(w.NewBuf(8), 5, 2)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(errs[0], ErrRevoked) {
		t.Errorf("parked recv after revoke: %v", errs[0])
	}
	if !errors.Is(errs[1], ErrRevoked) {
		t.Errorf("post-revoke send: %v", errs[1])
	}
}

func TestShrinkAndAgreeRecovery(t *testing.T) {
	for _, eng := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
		w := noisyWorld(t, &sim.Noise{Failures: []sim.Failure{{Rank: 2, At: 0}}},
			WithEngine(eng))
		sizes := make([]int, w.Size())
		err := w.Run(func(p *Proc) error {
			c := p.CommWorld()
			if p.Rank() == 2 {
				p.Compute(1) // dies
				return nil
			}
			// Observe the failure first — real fault-tolerant code only
			// recovers after an operation failed. Ranks that post after a
			// faster peer already revoked see ErrRevoked instead of
			// ErrRankFailed; both mean "this communicator is broken".
			_, err := c.Recv(w.NewBuf(8), 2, 1)
			if !errors.Is(err, ErrRankFailed) && !errors.Is(err, ErrRevoked) {
				t.Errorf("rank %d: recv from dead rank: %v", p.Rank(), err)
			}
			c.Revoke()
			ok, err := c.Agree(true)
			if err != nil {
				return err
			}
			if !ok {
				t.Errorf("rank %d: Agree(true) over live members = false", p.Rank())
			}
			nc, err := c.Shrink()
			if err != nil {
				return err
			}
			sizes[p.Rank()] = nc.Size()
			// The shrunken communicator must be usable: ring exchange.
			sbuf, rbuf := w.NewBuf(64), w.NewBuf(64)
			next := (nc.Rank() + 1) % nc.Size()
			prev := (nc.Rank() + nc.Size() - 1) % nc.Size()
			rq, err := nc.Irecv(rbuf, prev, 3)
			if err != nil {
				return err
			}
			if err := nc.Send(sbuf, next, 3); err != nil {
				return err
			}
			_, err = rq.Wait()
			return err
		})
		if err != nil {
			t.Fatalf("engine %v: Run: %v", eng, err)
		}
		for r, s := range sizes {
			if r == 2 {
				continue
			}
			if s != w.Size()-1 {
				t.Errorf("engine %v: rank %d shrunken size %d, want %d", eng, r, s, w.Size()-1)
			}
		}
	}
}

// TestSchedFailureSentinels: a schedule whose receive can never complete
// must end with the error of what ended the wait, on both engines and
// through both Wait and a Test loop. (Sched used to compare completion
// times against abortClock only, so failClock and revokedClock entered
// the cursor as times, finishRound dropped them, and Wait returned nil
// with the buffer unfilled.) The flags order the hand-off in host time:
// both receives are queued before rank 1 acts, so it is the sentinel
// walk that ends them, not a refused post.
func TestSchedFailureSentinels(t *testing.T) {
	cases := []struct {
		name  string
		noise *sim.Noise
		peer  int
		act   func(p *Proc)
		want  error
	}{
		// Rank 1 outlives the two flag receives, steps over its deadline
		// and dies at the next operation boundary.
		{"rank failed", &sim.Noise{Failures: []sim.Failure{{Rank: 1, At: sim.Millisecond}}}, 1,
			func(p *Proc) { p.Elapse(2 * sim.Millisecond); p.Compute(1) }, ErrRankFailed},
		// Rank 3 is alive and never sends.
		{"revoked", nil, 3, func(p *Proc) { p.CommWorld().Revoke() }, ErrRevoked},
	}
	for _, tc := range cases {
		for _, eng := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
			w := noisyWorld(t, tc.noise, WithEngine(eng))
			errs := make([]error, w.Size())
			err := w.Run(func(p *Proc) error {
				c := p.CommWorld()
				switch p.Rank() {
				case 0, 2:
					s := c.NewSched([]Round{{Ops: []SchedOp{SchedRecv(w.NewBuf(8), tc.peer, 0)}}})
					if err := s.Start(); err != nil {
						return err
					}
					if err := c.SendFlag(1, 9); err != nil {
						return err
					}
					if p.Rank() == 0 {
						errs[0] = s.Wait()
						return nil
					}
					for done := false; !done && errs[2] == nil; {
						done, errs[2] = s.Test()
					}
				case 1:
					for _, src := range []int{0, 2} {
						if err := c.RecvFlag(src, 9); err != nil {
							return err
						}
					}
					tc.act(p)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s, engine %v: Run: %v", tc.name, eng, err)
			}
			for _, r := range []int{0, 2} {
				if !errors.Is(errs[r], tc.want) {
					t.Errorf("%s, engine %v: rank %d schedule ended with %v, want %v", tc.name, eng, r, errs[r], tc.want)
				}
			}
		}
	}
}

// TestRankFailureStrandsNoSetupExchange: survivors entering a setup
// exchange — a generic Split, a WinAllocateShared — while a member dies
// at its first operation boundary must all fail with ErrRankFailed,
// however their arrival interleaves with the death: before the dead
// flag (the death walk fails their round), after it (the arrival check
// under the context lock), never in between. Nobody aborts the job here
// (each survivor keeps its panic to itself), so a survivor the death
// machinery misses parks for good — which is what the deadline catches.
func TestRankFailureStrandsNoSetupExchange(t *testing.T) {
	const n, doomed = 24, 5
	flavors := map[string]func(c *Comm){
		"split": func(c *Comm) { c.Split(c.Rank()%2, c.Rank()) },
		"win":   func(c *Comm) { WinAllocateShared(c, 8) },
	}
	for name, enter := range flavors {
		for it := 0; it < 150; it++ {
			w, err := NewWorld(sim.Laptop(), sim.MustUniform(1, n), WithEngine(sim.EngineGoroutine),
				WithNoise(&sim.Noise{Failures: []sim.Failure{{Rank: doomed, At: 0}}}))
			if err != nil {
				t.Fatal(err)
			}
			errs := make([]error, n)
			ran := make(chan error, 1)
			var entering atomic.Int32
			go func() {
				ran <- w.Run(func(p *Proc) error {
					if p.Rank() == doomed {
						// Die while the survivors are arriving, not before
						// the first or after the last of them.
						for entering.Load() < n/2 {
							runtime.Gosched()
						}
						p.Compute(1)
						return nil
					}
					defer func() { errs[p.Rank()], _ = recover().(error) }()
					entering.Add(1)
					enter(p.CommWorld())
					return nil
				})
			}()
			select {
			case err = <-ran:
			case <-time.After(30 * time.Second):
				t.Fatalf("%s, iteration %d: a survivor parked in a setup exchange its dead member can never complete", name, it)
			}
			if err != nil {
				t.Fatalf("%s, iteration %d: Run: %v", name, it, err)
			}
			for r, e := range errs {
				if r != doomed && !errors.Is(e, ErrRankFailed) {
					t.Fatalf("%s, iteration %d: survivor %d got %v, want ErrRankFailed", name, it, r, e)
				}
			}
			w.Close()
		}
	}
}
