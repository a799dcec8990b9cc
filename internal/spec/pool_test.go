package spec_test

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/spec"
)

// poolWorld builds a small event-engine world for pool tests: shape
// tests only need Size() and the aborted/closed lifecycle, so the
// cheapest healthy world does.
func poolWorld(t testing.TB, topo *sim.Topology) func() (*mpi.World, error) {
	t.Helper()
	return func() (*mpi.World, error) {
		return mpi.NewWorldConfig(sim.Laptop(), topo, mpi.Config{Engine: sim.EngineEvent})
	}
}

func poolKey(topo *sim.Topology, fold int) spec.ShapeKey {
	return spec.ShapeKey{Machine: "laptop", Topo: topo, Engine: sim.EngineEvent, FoldUnit: fold}
}

func TestWorldPoolReuse(t *testing.T) {
	topo := sim.MustUniformHier(4, sim.LevelDim{Name: "node", Arity: 2})
	p := spec.NewWorldPool(spec.PoolConfig{MaxIdle: -1})
	defer p.Close()
	key := poolKey(topo, 0)

	a, err := p.Checkout(key, poolWorld(t, topo))
	if err != nil {
		t.Fatal(err)
	}
	p.Checkin(a)
	b, err := p.Checkout(key, poolWorld(t, topo))
	if err != nil {
		t.Fatal(err)
	}
	if b.W != a.W {
		t.Error("second checkout of the same shape built a new world")
	}
	// A different shape must not be served by the parked world.
	c, err := p.Checkout(poolKey(topo, 4), poolWorld(t, topo))
	if err != nil {
		t.Fatal(err)
	}
	if c.W == a.W {
		t.Error("checkout crossed shape keys")
	}
	p.Checkin(b)
	p.Checkin(c)

	s := p.Stats()
	if s.Hits != 1 || s.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 1/2", s.Hits, s.Misses)
	}
	if s.IdleWorlds != 2 || s.IdleRanks != 16 || s.Leased != 0 {
		t.Errorf("residency = %+v", s)
	}
	if got := s.HitRatio(); got < 0.33 || got > 0.34 {
		t.Errorf("hit ratio = %g", got)
	}
}

func TestWorldPoolEvictsLRUOverBudget(t *testing.T) {
	small := sim.MustUniformHier(4, sim.LevelDim{Name: "node", Arity: 2}) // 8 ranks
	p := spec.NewWorldPool(spec.PoolConfig{MaxRanks: 12, MaxIdle: -1})
	defer p.Close()

	a, err := p.Checkout(poolKey(small, 0), poolWorld(t, small))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Checkout(poolKey(small, 4), poolWorld(t, small))
	if err != nil {
		t.Fatal(err)
	}
	p.Checkin(a) // 8 idle ranks, under budget
	p.Checkin(b) // 16 idle ranks: a (least recent) must go
	s := p.Stats()
	if s.Evicted != 1 || s.IdleWorlds != 1 || s.IdleRanks != 8 {
		t.Errorf("after overflow: %+v", s)
	}
	if !a.W.Closed() {
		t.Error("evicted world was not closed")
	}
	if a.W == b.W || b.W.Closed() {
		t.Error("most recently used world did not survive eviction")
	}
}

func TestWorldPoolOversizedWorldStillParks(t *testing.T) {
	big := sim.MustUniformHier(8, sim.LevelDim{Name: "node", Arity: 4}) // 32 ranks
	p := spec.NewWorldPool(spec.PoolConfig{MaxRanks: 4, MaxIdle: -1})
	defer p.Close()
	a, err := p.Checkout(poolKey(big, 0), poolWorld(t, big))
	if err != nil {
		t.Fatal(err)
	}
	p.Checkin(a)
	// The budget bounds variety, not a single world: the lone world
	// parks even though it exceeds MaxRanks on its own.
	if s := p.Stats(); s.IdleWorlds != 1 || s.Evicted != 0 {
		t.Errorf("oversized lone world: %+v", s)
	}
	b, err := p.Checkout(poolKey(big, 0), poolWorld(t, big))
	if err != nil {
		t.Fatal(err)
	}
	if b.W != a.W {
		t.Error("oversized world was not reused")
	}
	p.Checkin(b)
}

func TestWorldPoolDiscardsAbortedWorlds(t *testing.T) {
	topo := sim.MustUniformHier(4, sim.LevelDim{Name: "node", Arity: 2})
	p := spec.NewWorldPool(spec.PoolConfig{MaxIdle: -1})
	defer p.Close()
	key := poolKey(topo, 0)

	a, err := p.Checkout(key, poolWorld(t, topo))
	if err != nil {
		t.Fatal(err)
	}
	a.W.Abort()
	p.Checkin(a)
	s := p.Stats()
	if s.Discarded != 1 || s.IdleWorlds != 0 {
		t.Errorf("after aborted check-in: %+v", s)
	}
	if !a.W.Closed() {
		t.Error("discarded world was not closed")
	}
}

func TestWorldPoolReapsIdleWorlds(t *testing.T) {
	topo := sim.MustUniformHier(4, sim.LevelDim{Name: "node", Arity: 2})
	p := spec.NewWorldPool(spec.PoolConfig{MaxIdle: 100 * time.Millisecond})
	defer p.Close()
	a, err := p.Checkout(poolKey(topo, 0), poolWorld(t, topo))
	if err != nil {
		t.Fatal(err)
	}
	p.Checkin(a)
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Reaped == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle world never reaped: %+v", p.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if s := p.Stats(); s.IdleWorlds != 0 {
		t.Errorf("after reap: %+v", s)
	}
	if !a.W.Closed() {
		t.Error("reaped world was not closed")
	}
}

func TestWorldPoolCloseRetiresEverything(t *testing.T) {
	topo := sim.MustUniformHier(4, sim.LevelDim{Name: "node", Arity: 2})
	p := spec.NewWorldPool(spec.PoolConfig{})
	key := poolKey(topo, 0)

	parked, err := p.Checkout(key, poolWorld(t, topo))
	if err != nil {
		t.Fatal(err)
	}
	leased, err := p.Checkout(key, poolWorld(t, topo))
	if err != nil {
		t.Fatal(err)
	}
	p.Checkin(parked)

	p.Close()
	if !parked.W.Closed() {
		t.Error("Close left an idle world open")
	}
	// The world still checked out at Close time is closed when its
	// holder checks it back in.
	if leased.W.Closed() {
		t.Error("Close closed a world it does not own")
	}
	p.Checkin(leased)
	if !leased.W.Closed() {
		t.Error("check-in on a closed pool did not retire the world")
	}
	s := p.Stats()
	if s.IdleWorlds != 0 || s.IdleRanks != 0 || s.Leased != 0 {
		t.Errorf("after close: %+v", s)
	}
	// A late checkout still works — it just never gets a warm world.
	late, err := p.Checkout(key, poolWorld(t, topo))
	if err != nil {
		t.Fatal(err)
	}
	p.Checkin(late)
	if !late.W.Closed() {
		t.Error("post-close checkout leaked a world")
	}
	p.Close() // idempotent
}

// TestWorldPoolConcurrentHammer drives checkout/checkin/eviction from
// many goroutines at once with a rank budget small enough that parking
// constantly evicts, plus a fast reaper — every retirement path races
// every other. Run under -race this is the
// pool's memory-safety proof; the accounting invariants are asserted
// at the end.
func TestWorldPoolConcurrentHammer(t *testing.T) {
	topos := []*sim.Topology{
		sim.MustUniformHier(4, sim.LevelDim{Name: "node", Arity: 2}),
		sim.MustUniformHier(4, sim.LevelDim{Name: "node", Arity: 4}),
		sim.MustUniformHier(8, sim.LevelDim{Name: "node", Arity: 2}),
	}
	p := spec.NewWorldPool(spec.PoolConfig{
		MaxRanks: 24, // two small worlds at most
		MaxIdle:  100 * time.Millisecond,
	})
	const goroutines = 16
	const iters = 40
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				topo := topos[(g+i)%len(topos)]
				pw, err := p.Checkout(poolKey(topo, 0), poolWorld(t, topo))
				if err != nil {
					errs[g] = fmt.Errorf("iter %d: %w", i, err)
					return
				}
				if pw.W.Closed() {
					errs[g] = fmt.Errorf("iter %d: checkout returned a closed world", i)
					return
				}
				// Exercise the world while holding it so a racing
				// eviction/reap of a leased world would be caught.
				if err := pw.W.Run(func(proc *mpi.Proc) error { return nil }); err != nil {
					errs[g] = fmt.Errorf("iter %d: %w", i, err)
					return
				}
				if i%7 == 0 {
					pw.W.Abort() // force the discard path too
				}
				p.Checkin(pw)
				if i%5 == 0 {
					_ = p.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	s := p.Stats()
	if s.Leased != 0 {
		t.Errorf("leaked leases: %+v", s)
	}
	if s.Hits+s.Misses != goroutines*iters {
		t.Errorf("checkout accounting: %+v", s)
	}
	if s.IdleRanks > 24+32 { // budget plus one oversized parked world
		t.Errorf("idle ranks over budget: %+v", s)
	}
	p.Close()
	if s := p.Stats(); s.IdleWorlds != 0 || s.IdleRanks != 0 {
		t.Errorf("after close: %+v", s)
	}
}

// TestOutsideAbortHammer aborts event-engine Runs from a goroutine
// outside them, the way spec's cancellation watcher does, after a seeded
// host delay of up to 3 ms: before the Run starts, or while it has
// queued receives and rendezvous sends, two live rendezvous rounds (a
// Barrier and a FuseClocks) and one rank polling with Test. While the
// driver is live the abort only publishes its flag and the driver
// walks; either way every Run must return ErrAborted and no deadlock,
// promptly, and the pool must retire each aborted world instead of
// handing it out again. Closing the pool leaves no goroutine behind.
func TestOutsideAbortHammer(t *testing.T) {
	const runs = 16
	base := runtime.NumGoroutine()
	topo := sim.MustUniform(2, 4)
	big := mpi.Sized(2 * sim.Laptop().EagerLimit)
	p := spec.NewWorldPool(spec.PoolConfig{MaxIdle: -1})
	rng := rand.New(rand.NewPCG(52, 1))
	seen := make(map[*mpi.World]bool, runs)
	body := func(proc *mpi.Proc) error {
		c := proc.CommWorld()
		node, err := c.SplitTypeShared() // ranks 0-3 and 4-7
		if err != nil {
			return err
		}
		switch proc.Rank() {
		case 0: // polls a receive nobody sends, keeping the ready ring busy
			rq, err := c.Irecv(mpi.Sized(8), 7, 0)
			if err != nil {
				return err
			}
			for {
				ok, _, err := rq.Test()
				if err != nil {
					return err
				}
				if ok {
					return errors.New("poll completed without a sender")
				}
			}
		case 1:
			_, err := c.Recv(mpi.Sized(8), 7, 1)
			return err
		case 2:
			return c.Send(big, 7, 2)
		case 3: // a clock-fusion round the rest of node 0 never joins
			node.FuseClocks(proc.Clock())
			return errors.New("clock fusion completed without ranks 0-2")
		case 4, 5: // a barrier round ranks 6 and 7 never join
			if err := node.Barrier(); err != nil {
				return err
			}
			return errors.New("barrier completed without ranks 6 and 7")
		case 6:
			sq, err := c.Isend(big, 1, 6)
			if err != nil {
				return err
			}
			rq, err := c.Irecv(mpi.Sized(8), 1, 6)
			if err != nil {
				return err
			}
			return mpi.Waitall(sq, rq)
		default:
			_, err := c.Recv(mpi.Sized(8), 6, 9)
			return err
		}
	}
	for i := range runs {
		pw, err := p.Checkout(poolKey(topo, 0), poolWorld(t, topo))
		if err != nil {
			t.Fatal(err)
		}
		w := pw.W
		if seen[w] {
			t.Fatalf("run %d: the pool handed out a world an earlier Run aborted", i)
		}
		seen[w] = true
		delay := time.Duration(rng.IntN(3000)) * time.Microsecond
		aborted := make(chan time.Time)
		go func() {
			time.Sleep(delay)
			at := time.Now()
			w.Abort()
			aborted <- at
		}()
		err = w.Run(body)
		at := <-aborted
		if took := time.Since(at); took > time.Second {
			t.Errorf("run %d: Run returned %v after the outside Abort", i, took)
		}
		if !errors.Is(err, mpi.ErrAborted) || errors.Is(err, mpi.ErrDeadlock) {
			t.Errorf("run %d (abort after %v): Run returned %v, want ErrAborted and no deadlock", i, delay, err)
		}
		if err != nil && !strings.Contains(err.Error(), "poisoned world") { // the Run started
			for r := range topo.Size() {
				if !strings.Contains(err.Error(), fmt.Sprintf("rank %d: ", r)) {
					t.Errorf("run %d: rank %d not unwound with its own error: %v", i, r, err)
				}
			}
		}
		p.Checkin(pw)
	}
	if s := p.Stats(); s.Hits != 0 || s.Discarded != runs || s.IdleWorlds != 0 {
		t.Errorf("pool after %d aborted Runs: %+v, want no hit, every world discarded", runs, s)
	}
	p.Close()
	for i := 0; i < 2000 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the pool closed, %d before", n, base)
	}
}

// TestClosedPooledWorldIsCollectable: a pooled event world that built a
// hierarchical composer, whose geometry the process-wide cache keeps
// (it holds the member table it was built from), is garbage once the
// pool has closed it and nobody holds it.
func TestClosedPooledWorldIsCollectable(t *testing.T) {
	topo := sim.MustUniform(4, 4)
	p := spec.NewWorldPool(spec.PoolConfig{MaxIdle: -1})
	ref := func() weak.Pointer[mpi.World] {
		pw, err := p.Checkout(poolKey(topo, 0), poolWorld(t, topo))
		if err != nil {
			t.Fatal(err)
		}
		err = pw.W.Run(func(pr *mpi.Proc) error {
			h, err := coll.NewHier(pr.CommWorld())
			if err != nil {
				return err
			}
			return h.Allgather(mpi.Sized(8), mpi.Sized(8*pr.Size()), 8)
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Checkin(pw)
		return weak.Make(pw.W)
	}()
	p.Close()
	runtime.GC()
	runtime.GC()
	if ref.Value() != nil {
		t.Error("a closed pooled world that ran NewHier is still reachable after a GC")
	}
}
