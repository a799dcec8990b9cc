package mpi

import (
	"errors"
	"testing"

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
// cost of an event-engine Run: dispatch rides the pre-spawned workers
// and pooled matcher records, so repeated Runs must not accumulate
// per-rank state.
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
