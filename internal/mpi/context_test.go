package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// TestSetupSlotsRetireWithoutWipe: every setup slot is retired by the
// last member that executes, on the folded world too — where a slot
// counting down from the communicator size never emptied and Run wiped
// them all afterwards — so a reused world carries none from one Run into
// the next, and the contexts each cycle opens are gone when it ends:
// the world's list is back to its pre-Run length.
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
		for i := 0; i < cycles; i++ {
			before := len(w.ctxs)
			w.ResetClocks()
			if err := w.Run(body); err != nil {
				t.Fatalf("%s, cycle %d: %v", tc.name, i, err)
			}
			if n := liveSlots(w); n != 0 {
				t.Fatalf("%s, cycle %d: %d setup slots still live after the Run", tc.name, i, n)
			}
			if len(w.ctxs) != before {
				t.Fatalf("%s, cycle %d: %d contexts after the Run, %d before it", tc.name, i, len(w.ctxs), before)
			}
		}
		w.Close()
	}
}

// postGCHeap is the live heap after two collections (the second empties
// the pools' victim caches).
func postGCHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRunRetiresItsContexts: a Run that opens a hierarchical collective's
// contexts — node communicators, a leaders' communicator, traffic on
// both — leaves the world holding what it held before, on a folded
// event world and an unfolded goroutine world alike. The world's list is
// back to its one context after every Run, and the heap does not grow
// with reuse: while each Run's contexts stayed, with their queues, the
// folded world kept about 7 KB per Run and the unfolded one 180 KB.
func TestRunRetiresItsContexts(t *testing.T) {
	cycles := 200
	if raceEnabled || testing.Short() {
		cycles = 20
	}
	for _, tc := range []struct {
		name       string
		nodes, ppn int
		cfg        Config
	}{
		{"event 1024x64 fold 64", 1024, 64, Config{Engine: sim.EngineEvent, FoldUnit: 64}},
		{"goroutine 64x24", 64, 24, Config{}},
	} {
		w, err := NewWorldConfig(sim.Laptop(), sim.MustUniform(tc.nodes, tc.ppn), tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		body := func(p *Proc) error {
			world := p.CommWorld()
			node, err := world.SplitTypeShared()
			if err != nil {
				return err
			}
			v, err := SetupOnce(world, func() (any, error) {
				leaders := make([]int, tc.nodes)
				for i := range leaders {
					leaders[i] = i * tc.ppn
				}
				return w.NewContext(leaders), nil
			})
			if err != nil {
				return err
			}
			ring := func(c *Comm) error {
				n := c.Size()
				_, err := c.Sendrecv(Sized(8), (c.Rank()+1)%n, 5, Sized(8), (c.Rank()+n-1)%n, 5)
				return err
			}
			if node.Rank() == 0 {
				if err := ring(node.NewGroupComm(v.(*Context), p.Rank()/tc.ppn)); err != nil {
					return err
				}
			}
			if err := ring(node); err != nil {
				return err
			}
			return node.Barrier()
		}
		run := func(i int) {
			w.ResetClocks()
			if err := w.Run(body); err != nil {
				t.Fatalf("%s, cycle %d: %v", tc.name, i, err)
			}
			if len(w.ctxs) != 1 {
				t.Fatalf("%s, cycle %d: %d contexts after the Run, want the world's alone", tc.name, i, len(w.ctxs))
			}
		}
		for i := 0; i < 10; i++ {
			run(i)
		}
		before := postGCHeap()
		for i := 0; i < cycles; i++ {
			run(i)
		}
		per := (float64(postGCHeap()) - float64(before)) / float64(cycles)
		if per >= 1024 {
			t.Errorf("%s: the heap grew %.0f B per Run over %d Runs, want under 1 KB", tc.name, per, cycles)
		}
		t.Logf("%s: %.0f B per Run over %d Runs", tc.name, per, cycles)
		w.Close()
	}
}

// TestCommUsedAfterItsRun: a handle carried into a later Run points at a
// context its own Run retired. A send, a barrier (a clock-fusion round)
// and a setup call on it each fail at once, on both engines, with an
// error that names the communicator and wraps ErrRevoked.
func TestCommUsedAfterItsRun(t *testing.T) {
	for _, eng := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
		for _, op := range []struct {
			name string
			use  func(c *Comm) error
		}{
			{"Send", func(c *Comm) error { return c.Send(Sized(8), (c.Rank()+1)%c.Size(), 1) }},
			{"Barrier", func(c *Comm) error { return c.Barrier() }},
			{"SetupOnce", func(c *Comm) error {
				_, err := SetupOnce(c, func() (any, error) { return nil, nil })
				return err
			}},
		} {
			w, err := NewWorld(sim.Laptop(), sim.MustUniform(2, 4), WithEngine(eng))
			if err != nil {
				t.Fatal(err)
			}
			node := make([]*Comm, w.Size())
			err = w.Run(func(p *Proc) error {
				c, err := p.CommWorld().SplitTypeShared()
				node[p.Rank()] = c
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(p *Proc) error { return op.use(node[p.Rank()]) })
			if !errors.Is(err, ErrRevoked) || !strings.Contains(err.Error(), "4-rank communicator was opened in an earlier Run") {
				t.Errorf("%v engine, %s on a handle from the previous Run: %v", eng, op.name, err)
			}
			w.Close()
		}
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
