package mpi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// TestSetupSlotsRetireWithoutWipe: every setup slot is retired by the
// last member that executes, on the folded world too — where a slot
// counting down from the communicator size never emptied and Run wiped
// them all afterwards — so a reused world carries none from one Run into
// the next, and each cycle opens the same number of contexts.
func TestSetupSlotsRetireWithoutWipe(t *testing.T) {
	cycles := 200
	if raceEnabled || testing.Short() {
		cycles = 20
	}
	for _, tc := range []struct {
		name string
		ppn  int
		cfg  Config
	}{
		{"event 64x64 fold 64", 64, Config{Engine: sim.EngineEvent, FoldUnit: 64}},
		{"goroutine 64x24", 24, Config{}},
	} {
		w, err := NewWorldConfig(sim.Laptop(), sim.MustUniform(64, tc.ppn), tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		body := func(p *Proc) error {
			world := p.CommWorld()
			if _, _, err := SetupSlab[int](world, nil); err != nil {
				return err
			}
			if _, err := SetupOnce(world, func() (any, error) { return nil, nil }); err != nil {
				return err
			}
			node, err := world.SplitTypeShared()
			if err != nil {
				return err
			}
			h, _, err := SetupSlab[int](node, nil)
			*h = p.Rank()
			return err
		}
		grew := 0
		for i := 0; i < cycles; i++ {
			before := len(w.ctxs)
			w.ResetClocks()
			if err := w.Run(body); err != nil {
				t.Fatalf("%s, cycle %d: %v", tc.name, i, err)
			}
			if n := liveSlots(w); n != 0 {
				t.Fatalf("%s, cycle %d: %d setup slots still live after the Run", tc.name, i, n)
			}
			if d := len(w.ctxs) - before; i == 0 {
				grew = d
			} else if d != grew {
				t.Fatalf("%s, cycle %d: %d new contexts, %d in the first cycle", tc.name, i, d, grew)
			}
		}
		if grew != 64 { // one per node
			t.Errorf("%s: %d contexts per cycle, want 64", tc.name, grew)
		}
		w.Close()
	}
}

// TestRevokeLeavesSiblingCommunicatorAlone: the revoked flag is the
// context's own, so of two communicators one Split made only the revoked
// one fails its pending and future p2p, on every member, while its
// sibling and the parent keep working.
func TestRevokeLeavesSiblingCommunicatorAlone(t *testing.T) {
	for _, eng := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
		w, err := NewWorld(sim.Laptop(), sim.MustUniform(2, 4), WithEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(p *Proc) error {
			world := p.CommWorld()
			sub, err := world.Split(p.Rank()%2, p.Rank())
			if err != nil {
				return err
			}
			n, even, name := sub.Size(), p.Rank()%2 == 0, "sibling"
			if even {
				name = "revoked"
			}
			next, prev := (sub.Rank()+1)%n, (sub.Rank()+n-1)%n
			// A receive pending across the Revoke (the barrier, on the
			// parent, makes sure of that): on the revoked communicator
			// nobody ever sends to it.
			pending, err := sub.Irecv(Sized(8), prev, 7)
			if err != nil {
				return err
			}
			if err := world.Barrier(); err != nil { // message-based: two nodes
				return err
			}
			if even && sub.Rank() == 0 {
				sub.Revoke()
			}
			if err := world.Barrier(); err != nil {
				return fmt.Errorf("parent barrier after the revoke: %w", err)
			}
			if sub.Revoked() != even {
				return fmt.Errorf("rank %d: Revoked() = %v", p.Rank(), sub.Revoked())
			}
			_, err = sub.Sendrecv(Sized(8), next, 3, Sized(8), prev, 3)
			if even != errors.Is(err, ErrRevoked) || (!even && err != nil) {
				return fmt.Errorf("rank %d: ring exchange on the %s communicator: %v", p.Rank(), name, err)
			}
			if !even {
				// Complete the sibling's pending receive the ordinary way.
				if err := sub.Send(Sized(8), next, 7); err != nil {
					return err
				}
			}
			if _, err = pending.Wait(); even != errors.Is(err, ErrRevoked) || (!even && err != nil) {
				return fmt.Errorf("rank %d: pending receive on the %s communicator: %v", p.Rank(), name, err)
			}
			return nil
		})
		if err != nil {
			t.Errorf("%v engine: %v", eng, err)
		}
		w.Close()
	}
}

// TestSetupOnceSharesBuildError: a build that fails runs once all the
// same, every member gets that very error without waiting on anybody,
// and the slot retires like any other.
func TestSetupOnceSharesBuildError(t *testing.T) {
	boom := errors.New("plan rejected")
	for _, eng := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
		w, err := NewWorld(sim.Laptop(), sim.MustUniform(2, 4), WithEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		var builds atomic.Int32
		got := make([]error, w.Size())
		err = w.Run(func(p *Proc) error {
			v, err := SetupOnce(p.CommWorld(), func() (any, error) {
				builds.Add(1)
				return nil, boom
			})
			if v != nil {
				return fmt.Errorf("rank %d: plan %v beside the error", p.Rank(), v)
			}
			got[p.Rank()] = err
			return nil
		})
		if err != nil {
			t.Fatalf("%v engine: %v", eng, err)
		}
		for r, e := range got {
			if e != boom {
				t.Errorf("%v engine, rank %d: %v, want the build's error", eng, r, e)
			}
		}
		if builds.Load() != 1 || liveSlots(w) != 0 || liveRounds(w) != 0 || w.MaxClock() != 0 {
			t.Errorf("%v engine: %d builds, %d live slots, %d live rounds, clock %v; want 1, 0, 0, 0",
				eng, builds.Load(), liveSlots(w), liveRounds(w), w.MaxClock())
		}
		w.Close()
	}
}

// TestSetupOnceRoundAllocationPin: a SetupOnce call over a 24-rank node
// communicator costs the one slot record, whoever arrives first, and
// nothing per member. 3.00 at the parent: the record, its boxed
// (context, seq) key and the sync.Map node.
func TestSetupOnceRoundAllocationPin(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	w, err := NewWorld(sim.Laptop(), sim.MustUniform(1, 24))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// SplitTypeShared performs no rendezvous either, so the members'
	// calls can be made one after the other from here.
	node := make([]*Comm, w.Size())
	for r, p := range w.procs {
		if node[r], err = p.CommWorld().SplitTypeShared(); err != nil {
			t.Fatal(err)
		}
	}
	round := func() {
		for _, c := range node {
			if _, err := SetupOnce(c, func() (any, error) { return nil, nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 8; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg > 1 {
		t.Errorf("a 24-member SetupOnce round allocates %.2f objects, want 1 (the slot record)", avg)
	}
	if n := liveSlots(w); n != 0 {
		t.Errorf("%d setup slots live after whole rounds", n)
	}
}
