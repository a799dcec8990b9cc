package mpi

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
)

// Failure injection: a rank that errors out must not strand peers that
// are blocked in communication — the job aborts like an mpirun job.

func TestAbortWakesBlockedRecv(t *testing.T) {
	w := newTestWorld(t, 1, 4)
	boom := errors.New("rank 0 died")
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			return boom // dies without sending anything
		}
		// Everyone else waits for a message that will never come.
		_, err := p.CommWorld().Recv(Sized(8), 0, 1)
		return err
	})
	if err == nil {
		t.Fatal("Run returned nil")
	}
	if !errors.Is(err, boom) {
		t.Errorf("original error lost: %v", err)
	}
	if !errors.Is(err, ErrAborted) {
		t.Errorf("peers not woken with ErrAborted: %v", err)
	}
	if !w.Aborted() {
		t.Error("world not marked aborted")
	}
}

func TestAbortWakesBlockedBarrier(t *testing.T) {
	// Multi-node barrier (message-based path).
	w := newTestWorld(t, 2, 2)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 3 {
			return errors.New("deserter")
		}
		return p.CommWorld().Barrier()
	})
	if err == nil || !errors.Is(err, ErrAborted) {
		t.Fatalf("barrier peers not aborted: %v", err)
	}
}

func TestAbortWakesShmBarrier(t *testing.T) {
	// Single-node barrier goes through the rendezvous (panic path).
	w := newTestWorld(t, 1, 4)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 2 {
			return errors.New("deserter")
		}
		return p.CommWorld().Barrier()
	})
	if err == nil || !errors.Is(err, ErrAborted) {
		t.Fatalf("shm barrier peers not aborted: %v", err)
	}
}

func TestAbortWakesSplit(t *testing.T) {
	// Exchange-based communicator construction must abort too. (The
	// derived SplitLevel/SplitTypeShared path never rendezvouses — a
	// member computes the partition locally and cannot be stranded —
	// so the generic color Split is the path that needs waking.)
	w := newTestWorld(t, 2, 2)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 1 {
			return errors.New("deserter")
		}
		_, err := p.CommWorld().Split(0, p.Rank())
		return err
	})
	if err == nil || !errors.Is(err, ErrAborted) {
		t.Fatalf("split peers not aborted: %v", err)
	}
}

func TestAbortWakesRendezvousSend(t *testing.T) {
	w := newTestWorld(t, 2, 1)
	big := w.model.EagerLimit * 2
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 1 {
			return errors.New("receiver died before posting")
		}
		return p.CommWorld().Send(Alloc(big, true), 1, 0)
	})
	if err == nil || !errors.Is(err, ErrAborted) {
		t.Fatalf("rendezvous sender not aborted: %v", err)
	}
}

// TestAbortFromPanic runs on both engines: on the event engine the panic
// is raised inside the rank's coroutine, and must still be reported as
// that rank's error, abort its peers, and leave nothing running once the
// world is closed.
func TestAbortFromPanic(t *testing.T) {
	for _, e := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
		base := runtime.NumGoroutine()
		w, err := NewWorld(sim.Laptop(), sim.MustUniform(1, 3), WithRealData(), WithEngine(e))
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(p *Proc) error {
			if p.Rank() == 0 {
				panic("kaboom")
			}
			_, err := p.CommWorld().Recv(Sized(8), 0, 0)
			return err
		})
		if err == nil || !errors.Is(err, ErrAborted) {
			t.Fatalf("%v: panic did not abort peers: %v", e, err)
		}
		var re *RankError
		if !errors.As(err, &re) || re.Rank != 0 || !strings.HasPrefix(re.Err.Error(), "panic: kaboom") {
			t.Errorf("%v: panic not reported as rank 0's error: %v", e, err)
		}
		w.Close()
		if !settlesTo(base) {
			t.Errorf("%v: %d goroutines after Close, want %d", e, runtime.NumGoroutine(), base)
		}
	}
}

func TestCleanRunNotAborted(t *testing.T) {
	w := newTestWorld(t, 1, 2)
	if err := w.Run(func(p *Proc) error { return p.CommWorld().Barrier() }); err != nil {
		t.Fatal(err)
	}
	if w.Aborted() {
		t.Error("clean run marked aborted")
	}
}
