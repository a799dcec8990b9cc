package spec

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// ShapeKey identifies a world shape: everything that goes into
// mpi.NewWorldConfig and therefore everything two queries must agree
// on before they can share a resident world. Distinct fingerprints —
// different ladders, iteration counts, even different collectives —
// map onto the same ShapeKey whenever they describe the same machine,
// topology, engine, fold unit and tuning, which is exactly the
// geometry-reuse opportunity the pool exploits. Topo is the interned
// *sim.Topology pointer (sim.UniformHier interns structurally equal
// topologies), so the key is comparable and collision-free.
type ShapeKey struct {
	// Machine is the cost-model profile name. Profiles are
	// deterministic constructors, so two models of the same name are
	// interchangeable.
	Machine string
	// Topo is the interned topology.
	Topo *sim.Topology
	// Engine is the execution backend.
	Engine sim.Engine
	// FoldUnit is the rank-symmetry fold unit (0 = unfolded).
	FoldUnit int
	// Tuning is the canonical textual tuning spec (Tuning.Spec()).
	Tuning string
	// Noise is the canonical JSON of the query's noise block, "" for a
	// clean world. Noise is baked into a world at construction, so two
	// queries can only share a resident world when their noise configs
	// are identical.
	Noise string
	// TuneGen is the tuning-store generation a measured-policy query's
	// selections are bound to (0 otherwise). A world built against an
	// older snapshot carries that snapshot's picks in its CollConfig,
	// so it must not serve a query that expects newer measurements.
	TuneGen uint64
}

// PoolConfig sizes a WorldPool. The zero value is usable: every field
// defaults sensibly in NewWorldPool.
type PoolConfig struct {
	// MaxRanks is the rank budget across idle resident worlds; parking
	// a world that would push the idle total past it evicts the least
	// recently used idle worlds first. A single world larger than the
	// whole budget still parks alone — the hottest shape must stay
	// reusable — so the budget bounds variety, not one world's size
	// (default 1<<20).
	MaxRanks int
	// MaxIdle is how long a parked world may sit unused before the
	// reaper closes it (default 60s; <= 0 disables the reaper, so
	// worlds stay resident until evicted or the pool closes).
	MaxIdle time.Duration
	// MaxCheckouts caps how many times one world is handed out before
	// check-in retires it instead of parking it. Every Run appends a
	// few communicator contexts to the world's matcher tables, so an
	// immortal world would grow without bound; recycling bounds that
	// while still amortizing construction across many queries
	// (default 64).
	MaxCheckouts int
}

// PoolStats is a point-in-time snapshot of a WorldPool, exported as
// /metrics gauges by the service layer.
type PoolStats struct {
	// Hits counts checkouts served by a resident world.
	Hits int64
	// Misses counts checkouts that had to build a world.
	Misses int64
	// Evicted counts worlds closed to keep idle ranks under budget.
	Evicted int64
	// Reaped counts worlds closed by the idle reaper.
	Reaped int64
	// Recycled counts worlds retired at the checkout cap.
	Recycled int64
	// Discarded counts aborted or post-close worlds closed at check-in.
	Discarded int64
	// IdleWorlds is the resident world count awaiting checkout.
	IdleWorlds int
	// IdleRanks is the rank total across idle resident worlds.
	IdleRanks int
	// Leased is the number of worlds currently checked out.
	Leased int
}

// HitRatio returns Hits/(Hits+Misses), 0 when the pool is untouched.
func (s PoolStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// PooledWorld is one checked-out world plus the bookkeeping the pool
// needs to decide its fate at check-in. The holder owns W exclusively
// until Checkin (or discards it by closing W and calling Checkin
// anyway — an aborted or closed world is never re-parked).
type PooledWorld struct {
	// W is the world, exclusively owned until check-in.
	W *mpi.World
	// key remembers the shape bucket the world parks under.
	key ShapeKey
	// uses counts checkouts of this world, against MaxCheckouts.
	uses int
	// last is the park time, consulted by the idle reaper.
	last time.Time
	// elem is the world's LRU position while parked.
	elem *list.Element
}

// WorldPool keeps warm mpi.Worlds resident between queries, keyed by
// ShapeKey. Checkout pops a matching idle world (most recently used
// first — its caches are hottest) or reports a miss so the caller
// builds one; Checkin parks the world for the next query of the same
// shape. The pool holds only idle worlds: a checked-out world is
// exclusively the holder's until it comes back, so the one-Run-at-a-
// time World contract is structural. Idle residency is bounded three
// ways — a rank budget with LRU eviction, an idle reaper, and a
// per-world checkout cap (see PoolConfig) — and Close retires
// everything, for graceful daemon shutdown.
type WorldPool struct {
	cfg PoolConfig

	mu        sync.Mutex
	idle      map[ShapeKey][]*PooledWorld // per-shape stacks, newest last
	lru       *list.List                  // *PooledWorld, front = most recent
	idleRanks int
	leased    int
	closed    bool

	hits, misses, evicted, reaped, recycled, discarded int64

	reapStop chan struct{}
	reapDone chan struct{}
}

// NewWorldPool builds a pool from cfg, applying defaults for zero
// fields, and starts the idle reaper unless MaxIdle disables it.
func NewWorldPool(cfg PoolConfig) *WorldPool {
	if cfg.MaxRanks <= 0 {
		cfg.MaxRanks = 1 << 20
	}
	if cfg.MaxIdle == 0 {
		cfg.MaxIdle = 60 * time.Second
	}
	if cfg.MaxCheckouts <= 0 {
		cfg.MaxCheckouts = 64
	}
	p := &WorldPool{
		cfg:  cfg,
		idle: make(map[ShapeKey][]*PooledWorld),
		lru:  list.New(),
	}
	if cfg.MaxIdle > 0 {
		p.reapStop = make(chan struct{})
		p.reapDone = make(chan struct{})
		go p.reaper()
	}
	return p
}

// Checkout hands out a resident world of the given shape, or builds
// one via build on a miss. The returned PooledWorld is exclusively the
// caller's until Checkin. Clocks are reset before a resident world is
// returned, so the caller sees the same starting state either way. A
// closed pool still works — every checkout is a miss and check-in
// closes — so shutdown never races request tails.
func (p *WorldPool) Checkout(key ShapeKey, build func() (*mpi.World, error)) (*PooledWorld, error) {
	p.mu.Lock()
	if stack := p.idle[key]; len(stack) > 0 {
		pw := stack[len(stack)-1]
		p.popLocked(pw)
		p.hits++
		p.leased++
		p.mu.Unlock()
		pw.uses++
		pw.W.ResetClocks()
		return pw, nil
	}
	p.misses++
	p.leased++
	p.mu.Unlock()

	w, err := build()
	if err != nil {
		p.mu.Lock()
		p.leased--
		p.mu.Unlock()
		return nil, err
	}
	return &PooledWorld{W: w, key: key, uses: 1}, nil
}

// Checkin returns a checked-out world. Poisoned, closed or worn-out
// worlds are retired; healthy ones park on the shape's idle stack,
// evicting least-recently-used idle worlds if the rank budget
// overflows. Always call it exactly once per successful Checkout.
func (p *WorldPool) Checkin(pw *PooledWorld) {
	w := pw.W
	// A damaged world (a scheduled rank failure fired) is permanently
	// missing ranks; parking it would hand dead state to the next query.
	healthy := !w.Aborted() && !w.Closed() && !w.Damaged()

	p.mu.Lock()
	p.leased--
	switch {
	case p.closed || !healthy:
		p.discarded++
	case pw.uses >= p.cfg.MaxCheckouts:
		p.recycled++
	default:
		pw.last = time.Now()
		pw.elem = p.lru.PushFront(pw)
		p.idle[pw.key] = append(p.idle[pw.key], pw)
		p.idleRanks += w.Size()
		var evict []*PooledWorld
		for p.idleRanks > p.cfg.MaxRanks && p.lru.Len() > 1 {
			oldest := p.lru.Back().Value.(*PooledWorld)
			p.popLocked(oldest)
			p.evicted++
			evict = append(evict, oldest)
		}
		p.mu.Unlock()
		for _, e := range evict {
			e.W.Close()
		}
		return
	}
	p.mu.Unlock()
	w.Close()
}

// popLocked unparks pw: removes it from its shape stack, the LRU list
// and the idle rank total. Caller holds p.mu.
func (p *WorldPool) popLocked(pw *PooledWorld) {
	stack := p.idle[pw.key]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == pw {
			stack = append(stack[:i], stack[i+1:]...)
			break
		}
	}
	if len(stack) == 0 {
		delete(p.idle, pw.key)
	} else {
		p.idle[pw.key] = stack
	}
	p.lru.Remove(pw.elem)
	pw.elem = nil
	p.idleRanks -= pw.W.Size()
}

// reaper closes worlds idle past MaxIdle, so a burst of one shape does
// not pin its ranks forever after traffic moves on.
func (p *WorldPool) reaper() {
	defer close(p.reapDone)
	interval := p.cfg.MaxIdle / 4
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-p.reapStop:
			return
		case now := <-t.C:
			var stale []*PooledWorld
			p.mu.Lock()
			for {
				back := p.lru.Back()
				if back == nil {
					break
				}
				pw := back.Value.(*PooledWorld)
				if now.Sub(pw.last) < p.cfg.MaxIdle {
					break
				}
				p.popLocked(pw)
				p.reaped++
				stale = append(stale, pw)
			}
			p.mu.Unlock()
			for _, pw := range stale {
				pw.W.Close()
			}
		}
	}
}

// Close retires every idle world and stops the reaper. Worlds checked
// out at the time are closed when they come back (Checkin on a closed
// pool discards). After Close plus the holders' check-ins no simulator
// goroutine is left.
func (p *WorldPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	var all []*PooledWorld
	for e := p.lru.Front(); e != nil; e = e.Next() {
		all = append(all, e.Value.(*PooledWorld))
	}
	p.lru.Init()
	p.idle = make(map[ShapeKey][]*PooledWorld)
	p.idleRanks = 0
	p.mu.Unlock()

	for _, pw := range all {
		pw.W.Close()
	}
	if p.reapStop != nil {
		close(p.reapStop)
		<-p.reapDone
	}
}

// Stats snapshots the pool's counters and residency gauges.
func (p *WorldPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Hits:       p.hits,
		Misses:     p.misses,
		Evicted:    p.evicted,
		Reaped:     p.reaped,
		Recycled:   p.recycled,
		Discarded:  p.discarded,
		IdleWorlds: p.lru.Len(),
		IdleRanks:  p.idleRanks,
		Leased:     p.leased,
	}
}
