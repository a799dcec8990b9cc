package mpi

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// Run lifecycle coverage: a goroutine-engine world holds one goroutine
// per executing rank while a Run is in flight and none between Runs,
// whatever way the Run ended and whether or not the world is ever
// closed; only an event-engine world needs Close to release goroutines.

// settlesTo reports whether the process goroutine count falls back to
// base (a rank goroutine signals the Run's WaitGroup a few instructions
// before it exits, so Run can return first).
func settlesTo(base int) bool {
	for i := 0; i < 2000 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine() <= base
}

func TestRunLeavesNoGoroutines(t *testing.T) {
	boom := errors.New("boom")
	waitForPeer := func(p *Proc) error {
		_, err := p.CommWorld().Recv(Sized(8), 0, 1) // never sent
		return err
	}
	cases := []struct {
		name string
		body func(p *Proc) error
		want error // nil: the Run must succeed
	}{
		{"clean", func(p *Proc) error { return p.CommWorld().Barrier() }, nil},
		{"rank error", func(p *Proc) error {
			if p.Rank() == 0 {
				return boom
			}
			return waitForPeer(p)
		}, boom},
		{"rank panic", func(p *Proc) error {
			if p.Rank() == 0 {
				panic("kaboom")
			}
			return waitForPeer(p)
		}, ErrAborted},
		{"abort mid-Run", func(p *Proc) error {
			if p.Rank() == 0 {
				go p.world.Abort() // from outside the job, as a cancelled request does
			}
			return waitForPeer(p)
		}, ErrAborted},
	}
	for _, tc := range cases {
		for _, closeIt := range []bool{true, false} {
			base := runtime.NumGoroutine()
			w := newTestWorld(t, 2, 4)
			for i := 0; i < 3; i++ {
				err := w.Run(tc.body)
				if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
					t.Fatalf("%s: Run returned %v, want %v", tc.name, err, tc.want)
				}
				if !settlesTo(base) {
					t.Fatalf("%s: %d goroutines after Run %d, %d before the world existed", tc.name, runtime.NumGoroutine(), i, base)
				}
				if tc.want != nil {
					break // the world is poisoned; one Run is all it has
				}
			}
			if closeIt {
				w.Close()
			}
			if !settlesTo(base) {
				t.Fatalf("%s (close=%v): %d goroutines left, want %d", tc.name, closeIt, runtime.NumGoroutine(), base)
			}
		}
	}
}

func TestDroppedWorldsLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		w := newTestWorld(t, 1, 8)
		if err := w.Run(func(p *Proc) error { return p.CommWorld().Barrier() }); err != nil {
			t.Fatal(err)
		}
	}
	if !settlesTo(base) {
		t.Errorf("100 unclosed worlds left %d goroutines, want %d", runtime.NumGoroutine(), base)
	}
}

// TestRunHoldsOneGoroutinePerRank is the in-flight half of the contract
// (it replaces the sweeps' sampled peak_goroutines assertions): on a
// folded world only the executing ranks get one.
func TestRunHoldsOneGoroutinePerRank(t *testing.T) {
	for _, fold := range []int{0, 4} {
		w, err := NewWorld(sim.Laptop(), sim.MustUniform(4, 4), withFold(fold))
		if err != nil {
			t.Fatal(err)
		}
		exec := w.execN
		base := runtime.NumGoroutine()
		var arrived atomic.Int32
		release := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			done <- w.Run(func(p *Proc) error {
				arrived.Add(1)
				<-release
				return nil
			})
		}()
		for arrived.Load() < int32(exec) {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine() - base; got < exec {
			t.Errorf("fold %d: %d goroutines in flight for %d executing ranks", fold, got, exec)
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if !settlesTo(base) {
			t.Errorf("fold %d: %d goroutines after Run, want %d", fold, runtime.NumGoroutine(), base)
		}
	}
}

func TestClosedEventWorldLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	w, err := NewWorld(sim.Laptop(), sim.MustUniform(2, 4), WithEngine(sim.EngineEvent))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(p *Proc) error { return p.CommWorld().Barrier() }); err != nil {
		t.Fatal(err)
	}
	// Measured as what Close releases, not against base: the previous
	// test's own tRunner goroutine may still be exiting when base is
	// read (seen about once in 100 runs under -race), and it then counts
	// against the world.
	held := runtime.NumGoroutine()
	w.Close()
	if !settlesTo(held - w.Size()) {
		t.Errorf("Close released %d goroutines, want the world's %d continuations", held-runtime.NumGoroutine(), w.Size())
	}
	if !settlesTo(base) {
		t.Errorf("closed event world left %d goroutines, want %d", runtime.NumGoroutine(), base)
	}
}

func TestRunSteadyStateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	w := newTestWorld(t, 1, 4)
	defer w.Close()
	body := func(p *Proc) error { return nil }
	for i := 0; i < 16; i++ {
		if err := w.Run(body); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := w.Run(body); err != nil {
			t.Fatal(err)
		}
	})
	// Spawning through the world's one bound closure allocates nothing
	// (goroutine descriptors and stacks come from the runtime's free
	// lists); a tiny budget covers scheduling internals such as sudog
	// cache refills.
	if avg >= 4 {
		t.Errorf("steady-state Run allocates %.2f objects/op, want ~0", avg)
	}
}

func TestAbortWhileParked(t *testing.T) {
	w := newTestWorld(t, 1, 4)
	defer w.Close()
	if err := w.Run(func(p *Proc) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// No Run in flight: Abort must still poison the world.
	w.Abort()
	if err := w.Run(func(p *Proc) error { return nil }); !errors.Is(err, ErrAborted) {
		t.Errorf("Run on aborted world returned %v, want ErrAborted", err)
	}
}

func TestAbortWhileActiveThenRunRefuses(t *testing.T) {
	w := newTestWorld(t, 1, 4)
	defer w.Close()
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			return errors.New("deserter")
		}
		return p.CommWorld().Barrier()
	})
	if err == nil || !errors.Is(err, ErrAborted) {
		t.Fatalf("active-phase abort not propagated: %v", err)
	}
	if err := w.Run(func(p *Proc) error { return nil }); !errors.Is(err, ErrAborted) {
		t.Errorf("Run after active-phase abort returned %v, want ErrAborted", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	// Close on a never-run world.
	w := newTestWorld(t, 1, 2)
	w.Close()
	w.Close()
	if err := w.Run(func(p *Proc) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("Run after Close returned %v, want ErrClosed", err)
	}

	// Close (twice) on a world that ran.
	w2 := newTestWorld(t, 2, 2)
	if err := w2.Run(func(p *Proc) error { return p.CommWorld().Barrier() }); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w2.Close()
	if err := w2.Run(func(p *Proc) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("Run after Close returned %v, want ErrClosed", err)
	}
}

func TestMaxClockDuringRunPanics(t *testing.T) {
	w := newTestWorld(t, 1, 2)
	defer w.Close()
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			w.MaxClock() // contract violation: clocks are owned by rank goroutines
		}
		return nil
	})
	if err == nil {
		t.Fatal("MaxClock during Run did not fail")
	}
	if want := "MaxClock during Run"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

// TestRepeatedRunMaxClockRace drives the documented contract — clock
// reads strictly between Runs — under the race detector: the CI race
// job fails here if MaxClock/ResetClocks ever race with the rank
// goroutines.
func TestRepeatedRunMaxClockRace(t *testing.T) {
	w := newTestWorld(t, 2, 3)
	defer w.Close()
	for i := 0; i < 25; i++ {
		if err := w.Run(func(p *Proc) error {
			p.Elapse(1)
			return p.CommWorld().Barrier()
		}); err != nil {
			t.Fatal(err)
		}
		if got := w.MaxClock(); got <= 0 {
			t.Fatalf("iteration %d: makespan %v", i, got)
		}
		w.ResetClocks()
		if w.MaxClock() != 0 {
			t.Fatal("clocks not reset")
		}
	}
}
