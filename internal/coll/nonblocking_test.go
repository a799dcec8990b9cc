package coll

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/sim"
)

func TestIallgatherCorrect(t *testing.T) {
	for _, shape := range [][]int{{4}, {2, 2}, {3, 3}, {5}} {
		n := 0
		for _, s := range shape {
			n += s
		}
		for _, elems := range []int{0, 13} {
			t.Run(fmt.Sprintf("%v/e%d", shape, elems), func(t *testing.T) {
				runWorld(t, sim.Laptop(), shape, func(p *mpi.Proc) error {
					c := p.CommWorld()
					recv := mpi.Bytes(make([]byte, 8*elems*n))
					s, err := Iallgather(c, fill(p.Rank(), elems), recv, 8*elems)
					if err != nil {
						return err
					}
					if err := s.Wait(); err != nil {
						return err
					}
					checkGathered(t, "iallgather", recv, n, elems)
					return nil
				})
			})
		}
	}
}

func TestIallreduceCorrect(t *testing.T) {
	for _, shape := range [][]int{{4}, {3, 3}, {7}, {2, 2, 2}} {
		n := 0
		for _, s := range shape {
			n += s
		}
		for _, elems := range []int{0, 9} {
			t.Run(fmt.Sprintf("%v/e%d", shape, elems), func(t *testing.T) {
				runWorld(t, sim.Laptop(), shape, func(p *mpi.Proc) error {
					c := p.CommWorld()
					v := make([]float64, elems)
					for i := range v {
						v[i] = float64(p.Rank() + i)
					}
					recv := mpi.Bytes(make([]byte, 8*elems))
					s, err := Iallreduce(c, mpi.FromFloat64s(v), recv, elems, mpi.Float64, mpi.OpSum)
					if err != nil {
						return err
					}
					if err := s.Wait(); err != nil {
						return err
					}
					for i := 0; i < elems; i++ {
						want := float64(n*i + n*(n-1)/2)
						if got := recv.Float64At(i); got != want {
							t.Errorf("rank %d elem %d = %v, want %v", p.Rank(), i, got, want)
							return nil
						}
					}
					return nil
				})
			})
		}
	}
}

func TestIbcastCorrect(t *testing.T) {
	for _, n := range []int{2, 5, 8} {
		for _, root := range []int{0, n - 1} {
			t.Run(fmt.Sprintf("n%d/root%d", n, root), func(t *testing.T) {
				const elems = 21
				runWorld(t, sim.Laptop(), []int{n}, func(p *mpi.Proc) error {
					c := p.CommWorld()
					var buf mpi.Buf
					if p.Rank() == root {
						buf = fill(root, elems)
					} else {
						buf = mpi.Bytes(make([]byte, 8*elems))
					}
					s, err := Ibcast(c, buf, root)
					if err != nil {
						return err
					}
					if err := s.Wait(); err != nil {
						return err
					}
					for i := 0; i < elems; i++ {
						want := float64(root*1_000_000 + i)
						if got := buf.Float64At(i); got != want {
							t.Errorf("rank %d elem %d = %v, want %v", p.Rank(), i, got, want)
							return nil
						}
					}
					return nil
				})
			})
		}
	}
}

func TestIbarrierSynchronizes(t *testing.T) {
	for _, shape := range [][]int{{4}, {3, 3}, {1, 1, 1, 1, 1}} {
		n := 0
		for _, s := range shape {
			n += s
		}
		t.Run(fmt.Sprint(shape), func(t *testing.T) {
			left := make([]sim.Time, n)
			runWorld(t, sim.Laptop(), shape, func(p *mpi.Proc) error {
				p.Elapse(sim.Time(p.Rank()) * sim.Millisecond)
				s, err := Ibarrier(p.CommWorld())
				if err != nil {
					return err
				}
				err = s.Wait()
				left[p.Rank()] = p.Clock()
				return err
			})
			for r, at := range left {
				if at < sim.Time(n-1)*sim.Millisecond {
					t.Errorf("rank %d left ibarrier at %v, before the slowest entered", r, at)
				}
			}
		})
	}
}

// TestIallreduceOverlap is the point of nonblocking collectives: local
// compute between Start and Wait runs concurrently with the schedule,
// so the makespan is max(compute, collective), not their sum.
func TestIallreduceOverlap(t *testing.T) {
	model := sim.HazelHenCray()
	shape := []int{1, 1, 1, 1} // all-net, so the collective is slow
	const elems = 1 << 20      // 8 MiB vector: the collective takes ~2 ms
	compute := 500 * sim.Microsecond

	// Same algorithm on both sides (the schedule compiles recursive
	// doubling), so the difference is purely the overlap.
	blocking := latencyOf(t, model, shape, func(p *mpi.Proc) error {
		c := p.CommWorld()
		recv := mpi.Sized(8 * elems)
		if err := AllreduceRecDbl(c, mpi.Sized(8*elems), recv, elems, mpi.Float64, mpi.OpSum); err != nil {
			return err
		}
		p.Elapse(compute)
		return nil
	})
	overlapped := latencyOf(t, model, shape, func(p *mpi.Proc) error {
		c := p.CommWorld()
		recv := mpi.Sized(8 * elems)
		s, err := Iallreduce(c, mpi.Sized(8*elems), recv, elems, mpi.Float64, mpi.OpSum)
		if err != nil {
			return err
		}
		if err := s.Start(); err != nil {
			return err
		}
		p.Elapse(compute) // independent work, overlapped
		return s.Wait()
	})
	if overlapped >= blocking {
		t.Errorf("overlap bought nothing: nonblocking %v vs blocking %v", overlapped, blocking)
	}
	// Overlap can save at most min(compute, collective); here compute
	// is the smaller phase and must be mostly hidden.
	if blocking-overlapped < compute/2 {
		t.Errorf("overlap saved only %v of %v compute", blocking-overlapped, compute)
	}
}

// TestSchedTestSemantics polls with Test until completion and checks
// the virtual outcome is identical to a Wait-driven run — when (in
// host time) progress is observed must not move any virtual clock.
func TestSchedTestSemantics(t *testing.T) {
	model := sim.Laptop()
	shape := []int{3, 3}
	const elems = 257

	run := func(poll bool) sim.Time {
		t.Helper()
		return latencyOf(t, model, shape, func(p *mpi.Proc) error {
			c := p.CommWorld()
			recv := mpi.Sized(8 * elems * 6)
			s, err := Iallgather(c, mpi.Sized(8*elems), recv, 8*elems)
			if err != nil {
				return err
			}
			if poll {
				for i := 0; ; i++ {
					done, err := s.Test()
					if err != nil {
						return err
					}
					if done {
						break
					}
					if i%100 == 99 {
						time.Sleep(50 * time.Microsecond)
					}
				}
				if !s.Done() {
					t.Error("Test reported done but Done() is false")
				}
				// Test and Wait on a completed schedule stay done.
				if done, err := s.Test(); err != nil || !done {
					t.Errorf("repeat Test = %v, %v", done, err)
				}
				return s.Wait()
			}
			return s.Wait()
		})
	}
	waited := run(false)
	polled := run(true)
	if waited != polled {
		t.Errorf("virtual makespan differs by progression style: Wait %v vs Test %v", waited, polled)
	}
}

// TestSchedBackToBack runs two overlapping schedules on one
// communicator; the per-instance tag windows must keep their traffic
// apart.
func TestSchedBackToBack(t *testing.T) {
	const elems = 5
	runWorld(t, sim.Laptop(), []int{4}, func(p *mpi.Proc) error {
		c := p.CommWorld()
		r1 := mpi.Bytes(make([]byte, 8*elems*4))
		r2 := mpi.Bytes(make([]byte, 8*elems))
		s1, err := Iallgather(c, fill(p.Rank(), elems), r1, 8*elems)
		if err != nil {
			return err
		}
		v := make([]float64, elems)
		for i := range v {
			v[i] = float64(p.Rank())
		}
		s2, err := Iallreduce(c, mpi.FromFloat64s(v), r2, elems, mpi.Float64, mpi.OpSum)
		if err != nil {
			return err
		}
		if err := s2.Wait(); err != nil {
			return err
		}
		if err := s1.Wait(); err != nil {
			return err
		}
		checkGathered(t, "sched1", r1, 4, elems)
		for i := 0; i < elems; i++ {
			if got := r2.Float64At(i); got != 6 { // 0+1+2+3
				t.Errorf("sched2 elem %d = %v, want 6", i, got)
				return nil
			}
		}
		return nil
	})
}

func TestRequestTest(t *testing.T) {
	runWorld(t, sim.Laptop(), []int{2}, func(p *mpi.Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			req, err := c.Isend(mpi.FromFloat64s([]float64{42}), 1, 7)
			if err != nil {
				return err
			}
			for {
				done, _, err := req.Test()
				if err != nil {
					return err
				}
				if done {
					break
				}
				time.Sleep(10 * time.Microsecond)
			}
			// A completed request stays completed.
			if done, _, err := req.Test(); !done || err != nil {
				t.Errorf("repeat Test = %v, %v", done, err)
			}
			return nil
		}
		buf := mpi.Bytes(make([]byte, 8))
		req, err := c.Irecv(buf, 0, 7)
		if err != nil {
			return err
		}
		for {
			done, st, err := req.Test()
			if err != nil {
				return err
			}
			if done {
				if st.Bytes != 8 || buf.Float64At(0) != 42 {
					t.Errorf("Test status %+v payload %v", st, buf.Float64At(0))
				}
				break
			}
			time.Sleep(10 * time.Microsecond)
		}
		return nil
	})
}

// TestIallreduceRankFailureEndsWait: a nonblocking collective whose peer
// dies mid-schedule must end Wait with ErrRankFailed on both engines,
// not return nil over a half-reduced buffer (mpi.Sched used to take the
// death sentinel for a completion time). The flag orders the hand-off in
// host time: rank 0's receive is queued before rank 1 dies, so it is the
// death walk that ends it, not a refused post.
func TestIallreduceRankFailureEndsWait(t *testing.T) {
	for _, eng := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
		w, err := mpi.NewWorld(sim.Laptop(), sim.MustUniform(1, 2), mpi.WithEngine(eng), mpi.WithRealData(),
			mpi.WithNoise(&sim.Noise{Failures: []sim.Failure{{Rank: 1, At: sim.Millisecond}}}))
		if err != nil {
			t.Fatal(err)
		}
		var waitErr error
		err = w.Run(func(p *mpi.Proc) error {
			c := p.CommWorld()
			if p.Rank() == 1 {
				if err := c.RecvFlag(0, 9); err != nil {
					return err
				}
				p.Elapse(2 * sim.Millisecond) // past the deadline
				p.Compute(1)                  // dies
				return nil
			}
			s, err := Iallreduce(c, mpi.FromFloat64s([]float64{1}), w.NewBuf(8), 1, mpi.Float64, mpi.OpSum)
			if err != nil {
				return err
			}
			if err := s.Start(); err != nil {
				return err
			}
			if err := c.SendFlag(1, 9); err != nil {
				return err
			}
			waitErr = s.Wait()
			return nil
		})
		w.Close()
		if err != nil {
			t.Fatalf("engine %v: Run: %v", eng, err)
		}
		if !errors.Is(waitErr, mpi.ErrRankFailed) {
			t.Errorf("engine %v: Iallreduce Wait = %v, want ErrRankFailed", eng, waitErr)
		}
	}
}

// Iallgather, Ibcast and Ibarrier are not collectives the package ships
// (Iallreduce is the nonblocking form a workload overlaps): they live
// here as schedule builders for the tests above, which drive mpi.Sched
// through multi-round, tree-shaped and zero-byte schedules.

// Iallgather starts a nonblocking allgather: recursive doubling on
// power-of-two communicators, ring otherwise (Bruck's rotated layout
// has no in-place round structure). recv must stay untouched until
// Wait.
func Iallgather(c *mpi.Comm, send, recv mpi.Buf, per int) (*mpi.Sched, error) {
	if err := checkAllgatherArgs(c, send, recv, per); err != nil {
		return nil, err
	}
	p := c.Proc()
	model := p.Model()
	n := c.Size()
	rank := c.Rank()

	rounds := []mpi.Round{{After: func(now sim.Time) sim.Time {
		mpi.CopyData(recv.Slice(rank*per, per), send.Slice(0, per))
		return now + model.CopyCost(per, 1)
	}}}
	v := blocks{buf: recv, per: per}
	switch {
	case n == 1:
	case isPow2(n):
		step := 0
		for mask := 1; mask < n; mask <<= 1 {
			partner, have, get := doublingStep(rank, mask)
			rounds = append(rounds, mpi.Round{Ops: []mpi.SchedOp{
				mpi.SchedRecv(v.span(get, mask), partner, step),
				mpi.SchedSend(v.span(have, mask), partner, step),
			}})
			step++
		}
	default:
		right := (rank + 1) % n
		left := (rank - 1 + n) % n
		for i := 0; i < n-1; i++ {
			s, r := ringStep(rank, n, i)
			rounds = append(rounds, mpi.Round{Ops: []mpi.SchedOp{
				mpi.SchedRecv(v.at(r), left, i),
				mpi.SchedSend(v.at(s), right, i),
			}})
		}
	}
	return c.NewSched(rounds), nil
}

// Ibcast starts a nonblocking binomial-tree broadcast. buf must stay
// untouched until Wait (on the root it is read, elsewhere written).
func Ibcast(c *mpi.Comm, buf mpi.Buf, root int) (*mpi.Sched, error) {
	if err := checkBcastArgs(c, buf, root); err != nil {
		return nil, err
	}
	n := c.Size()
	var rounds []mpi.Round
	if n == 1 {
		return c.NewSched(rounds), nil
	}
	rel := (c.Rank() - root + n) % n

	mask := binomialParent(rel, n)
	if rel != 0 {
		rounds = append(rounds, mpi.Round{Ops: []mpi.SchedOp{
			mpi.SchedRecv(buf, (rel-mask+root)%n, 0),
		}})
	}
	// Once the payload is here, the engine fires all child sends
	// back-to-back in one round.
	var sends []mpi.SchedOp
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < n {
			sends = append(sends, mpi.SchedSend(buf, (rel+mask+root)%n, 0))
		}
	}
	if len(sends) > 0 {
		rounds = append(rounds, mpi.Round{Ops: sends})
	}
	return c.NewSched(rounds), nil
}

// Ibarrier starts a nonblocking dissemination barrier: ceil(log2 n)
// rounds of zero-byte exchanges. Unlike the blocking Barrier it never
// takes the single-node flag fast path — the schedule runs on the
// message engine — so it costs a little more on one node, like real
// MPI_Ibarrier implementations.
func Ibarrier(c *mpi.Comm) (*mpi.Sched, error) {
	if c == nil {
		return nil, fmt.Errorf("coll: ibarrier on nil communicator")
	}
	n := c.Size()
	rank := c.Rank()
	empty := mpi.Sized(0)
	var rounds []mpi.Round
	step := 0
	for k := 1; k < n; k <<= 1 {
		dst := (rank + k) % n
		src := (rank - k + n) % n
		rounds = append(rounds, mpi.Round{Ops: []mpi.SchedOp{
			mpi.SchedRecv(empty, src, step),
			mpi.SchedSend(empty, dst, step),
		}})
		step++
	}
	return c.NewSched(rounds), nil
}
