package mpi

import (
	"testing"

	"repro/internal/sim"
)

// Context hygiene: a clean Run leaves no rendezvous round live on any
// context (the seed's session maps grew without bound across
// communicator creations), and both kinds of round must be
// allocation-lean at steady state.

// liveRounds counts the contexts that still hold a round collecting
// arrivals. Only meaningful between Runs.
func liveRounds(w *World) int {
	n := 0
	for _, cx := range w.ctxs {
		cx.mu.Lock()
		if cx.cur != nil {
			n++
		}
		cx.mu.Unlock()
	}
	return n
}

// liveSlots counts the setup slots no last member has retired, over
// every context of the world. Only meaningful between Runs.
func liveSlots(w *World) int {
	n := 0
	for _, cx := range w.ctxs {
		cx.mu.Lock()
		for e := cx.slots; e != nil; e = e.next {
			n++
		}
		cx.mu.Unlock()
	}
	return n
}

func TestNoLiveRoundAfterCleanRun(t *testing.T) {
	w := newTestWorld(t, 2, 4)
	defer w.Close()
	err := w.Run(func(p *Proc) error {
		// Exchange-based construction (generic Split, a window) and
		// clock fusion on the same cells.
		sub, err := p.CommWorld().Split(p.Rank()%2, p.Rank())
		if err != nil {
			return err
		}
		if _, err := sub.Split(0, sub.Rank()); err != nil {
			return err
		}
		node, err := p.CommWorld().SplitTypeShared()
		if err != nil {
			return err
		}
		if _, err = WinAllocateShared(node, 8); err != nil {
			return err
		}
		return node.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, slots := liveRounds(w), liveSlots(w); n != 0 || slots != 0 {
		t.Errorf("%d rendezvous rounds and %d setup slots still live after a clean Run", n, slots)
	}
}

func TestSetupExchangeAllocationLean(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	// A single-member communicator completes its round at contribute
	// time, exercising the open/complete/recycle cycle without needing a
	// peer goroutine.
	w, err := NewWorld(sim.Laptop(), sim.MustUniform(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c := w.procs[0].CommWorld()
	for i := 0; i < 32; i++ {
		c.exchange(i, nil)
	}
	avg := testing.AllocsPerRun(200, func() {
		c.exchange(7, nil)
	})
	// The returned contribution vector escapes (one allocation); the
	// round record itself must come from the pool. 1.00 at the parent.
	if avg > 1 {
		t.Errorf("exchange allocates %.2f objects/op, want <= 1 (pooled round records)", avg)
	}
}

func TestFuseClocksSteadyStateAllocationLean(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	w := newTestWorld(t, 1, 4)
	defer w.Close()
	body := func(p *Proc) error { return p.CommWorld().Barrier() } // shm barrier -> FuseClocks
	for i := 0; i < 16; i++ {
		if err := w.Run(body); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := w.Run(body); err != nil {
			t.Fatal(err)
		}
	})
	// Per Run: one pooled fusion round plus its lazily-created done
	// channel; everything else must be recycled.
	if avg >= 8 {
		t.Errorf("shm-barrier Run allocates %.2f objects/op, want a handful (pooled fusion rounds)", avg)
	}
}

// TestShmBarrierWideNodeEnginesAgree pins the one fusion path on wide
// one-node communicators: on each side of, and well past, the size at
// which the goroutine engine used to switch fusers (65), skewed ranks
// leave repeated shm barriers at the same exact virtual time on both
// engines.
func TestShmBarrierWideNodeEnginesAgree(t *testing.T) {
	for _, n := range []int{64, 65, 128} {
		var clocks [2][]sim.Time
		for i, eng := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
			w, err := NewWorld(sim.Laptop(), sim.MustUniform(1, n), WithEngine(eng))
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(p *Proc) error {
				c := p.CommWorld()
				for it := 0; it < 3; it++ {
					p.Elapse(sim.Time(1000 * (p.Rank() + it)))
					c.shmBarrier()
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < n; r++ {
				clocks[i] = append(clocks[i], w.procs[r].Clock())
			}
			w.Close()
		}
		for r := 0; r < n; r++ {
			if clocks[0][r] != clocks[1][r] || clocks[0][r] != clocks[0][0] {
				t.Fatalf("1x%d rank %d: goroutine %v, event %v, rank 0 %v", n, r, clocks[0][r], clocks[1][r], clocks[0][0])
			}
		}
	}
}

func TestSplitLevelRepeatedCallsAreIsolated(t *testing.T) {
	// Two SplitLevel calls on the same parent must produce distinct
	// communicators (fresh contexts) with identical membership, like
	// the exchange-based Split did.
	w := newTestWorld(t, 2, 3)
	defer w.Close()
	err := w.Run(func(p *Proc) error {
		world := p.CommWorld()
		a, err := world.SplitTypeShared()
		if err != nil {
			return err
		}
		b, err := world.SplitTypeShared()
		if err != nil {
			return err
		}
		if a == b {
			t.Error("repeated SplitLevel returned the same handle")
		}
		if a.Size() != b.Size() || a.Rank() != b.Rank() {
			t.Errorf("repeated SplitLevel disagrees: %d/%d vs %d/%d", a.Size(), a.Rank(), b.Size(), b.Rank())
		}
		// Traffic must not cross between the two: post on `a`, then
		// exchange on `b` with the same tag; the `a` message may only
		// be consumed by the `a` receive.
		if a.Size() == 3 {
			peer := (a.Rank() + 1) % 3
			prev := (a.Rank() + 2) % 3
			if err := a.Send(Sized(4), peer, 9); err != nil {
				return err
			}
			if err := b.Send(Sized(8), peer, 9); err != nil {
				return err
			}
			st, err := b.Recv(Sized(8), prev, 9)
			if err != nil {
				return err
			}
			if st.Bytes != 8 {
				t.Errorf("rank %d: context leak — b received the a message (%d bytes)", p.Rank(), st.Bytes)
			}
			if st, err = a.Recv(Sized(4), prev, 9); err != nil {
				return err
			}
			if st.Bytes != 4 {
				t.Errorf("rank %d: a received %d bytes, want 4", p.Rank(), st.Bytes)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
