package spec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Point is one ladder entry of a Result: the exact virtual cost of
// Iters back-to-back operations at one message size.
type Point struct {
	// Bytes is the ladder entry (see Query.Sizes for per-collective
	// semantics).
	Bytes int `json:"bytes"`
	// FoldUnit is the rank-symmetry fold unit this point executed
	// under (0 = every rank ran).
	FoldUnit int `json:"fold_unit"`
	// VirtualPs is the exact total virtual makespan of Iters
	// operations, in picoseconds — the bit-identity anchor across CLI,
	// HTTP and engines.
	VirtualPs int64 `json:"virtual_ps"`
	// VirtualUsPerOp is the per-operation virtual makespan in
	// microseconds.
	VirtualUsPerOp float64 `json:"virtual_us_per_op"`
}

// Result is what executing a Query produces: one Point per ladder
// size, plus the canonical identity of the run.
type Result struct {
	// Fingerprint is the query's canonical fingerprint (the service
	// cache key).
	Fingerprint string `json:"fingerprint"`
	// Machine is the cost-model profile name.
	Machine string `json:"machine"`
	// Topology is the human-readable shape, e.g. "64x24".
	Topology string `json:"topology"`
	// Ranks is the total rank count.
	Ranks int `json:"ranks"`
	// Collective is the operation simulated.
	Collective string `json:"collective"`
	// Engine is the execution backend the points ran on.
	Engine string `json:"engine"`
	// Iters is the per-point repetition count.
	Iters int `json:"iters"`
	// Tuning is the selection-engine tuning in the textual grammar.
	Tuning string `json:"tuning"`
	// Points is the ladder, ascending by Bytes.
	Points []Point `json:"points"`
}

// elems converts a byte size into whole float64 elements for the
// reducing collectives (at least one).
func elems(b int) int {
	if b < 8 {
		return 1
	}
	return b / 8
}

// flatCalls issues one operation of every collective expressible in a
// Query, flat on c, at size b: the per-rank block of the gathering
// collectives and of alltoall, the payload of the others (the reducing
// ones reduce elems(b) float64s). Buffers are size-only (no data
// movement): a Query measures virtual time, not payload contents.
// Canonicalize consults the key set, so adding an entry here is all it
// takes to open a collective to the Spec API.
var flatCalls = map[coll.Collective]func(c *mpi.Comm, b int) error{
	coll.CollAllgather: func(c *mpi.Comm, b int) error {
		return coll.Allgather(c, mpi.Sized(b), mpi.Sized(b*c.Size()), b)
	},
	coll.CollAllgatherv: func(c *mpi.Comm, b int) error {
		counts := make([]int, c.Size())
		for i := range counts {
			counts[i] = b
		}
		return coll.Allgatherv(c, mpi.Sized(b), mpi.Sized(b*c.Size()), counts)
	},
	coll.CollAllreduce: func(c *mpi.Comm, b int) error {
		n := elems(b)
		return coll.Allreduce(c, mpi.Sized(n*8), mpi.Sized(n*8), n, mpi.Float64, mpi.OpSum)
	},
	coll.CollReduce: func(c *mpi.Comm, b int) error {
		n := elems(b)
		return coll.Reduce(c, mpi.Sized(n*8), mpi.Sized(n*8), n, mpi.Float64, mpi.OpSum, 0)
	},
	coll.CollScan: func(c *mpi.Comm, b int) error {
		n := elems(b)
		return coll.Scan(c, mpi.Sized(n*8), mpi.Sized(n*8), n, mpi.Float64, mpi.OpSum)
	},
	coll.CollBcast: func(c *mpi.Comm, b int) error {
		return coll.Bcast(c, mpi.Sized(b), 0)
	},
	coll.CollBarrier: func(c *mpi.Comm, _ int) error {
		return coll.Barrier(c)
	},
	coll.CollAlltoall: func(c *mpi.Comm, b int) error {
		return coll.Alltoall(c, mpi.Sized(b*c.Size()), mpi.Sized(b*c.Size()), b)
	},
	coll.CollGather: func(c *mpi.Comm, b int) error {
		return coll.Gather(c, mpi.Sized(b), mpi.Sized(b*c.Size()), b, 0)
	},
}

// runOps executes iters operations of cl at ladder size b on one rank.
// Allgather runs the hierarchical (node+bridge) composition — the
// paper's canonical what-if subject and the scale sweep's workload;
// every other collective runs its flat call.
func runOps(p *mpi.Proc, cl coll.Collective, b, iters int) error {
	c, call := p.CommWorld(), flatCalls[cl]
	op := func() error { return call(c, b) }
	if cl == coll.CollAllgather {
		h, err := coll.NewHier(c)
		if err != nil {
			return err
		}
		send, recv := mpi.Sized(b), mpi.Sized(b*c.Size())
		op = func() error { return h.Allgather(send, recv, b) }
	}
	for i := 0; i < iters; i++ {
		if err := op(); err != nil {
			return err
		}
	}
	return nil
}

// autoFoldUnit resolves the rank-symmetry fold unit of a ladder point
// under fold "auto": the coll fold helpers' approval for the workloads
// they cover, 0 (unfolded) otherwise.
func autoFoldUnit(model *sim.CostModel, topo *sim.Topology, cl coll.Collective, b int, tun coll.Tuning) int {
	switch cl {
	case coll.CollAllgather:
		return coll.HierAllgatherFoldUnit(model, topo, b, tun)
	case coll.CollAllreduce:
		n := elems(b)
		return coll.AllreduceFoldUnit(model, topo, n*8, n, tun)
	}
	return 0
}

// Exec is a query execution environment: how worlds are obtained and
// how much of a ladder runs concurrently. The zero value is the
// standalone CLI behavior — no cross-query pool, groups run one at a
// time — and still reuses one warm world across the ladder points of
// each fold group. Virtual times are bit-identical across every
// combination of Pool/Parallelism/PerPointWorlds settings; the golden
// suite and the in-sweep cross-checks referee that.
type Exec struct {
	// Pool, when non-nil, keeps worlds resident across queries: ladder
	// groups check their world out by ShapeKey and return it when the
	// group finishes, so distinct fingerprints sharing a shape skip
	// world construction entirely.
	Pool *WorldPool
	// Parallelism bounds how many ladder groups of one query execute
	// concurrently (each group owns its own world). <= 1 runs groups
	// sequentially. Points keep their deterministic ascending-size
	// order in the Result either way.
	Parallelism int
	// PerPointWorlds restores the historical construct-per-point path:
	// every ladder point builds and closes its own world, bypassing
	// Pool. It is the referee configuration the warm paths are
	// bit-compared against (and the baseline the service sweep's cold
	// phase measures speedup over).
	PerPointWorlds bool
	// Tuner, when non-nil, backs the measured tuning policy: queries
	// with policy "measured" resolve selections against one snapshot
	// of its store (taken at run start, so a whole run sees one store
	// generation) and report world-communicator misses to it for
	// background measurement. Nil makes the measured policy behave
	// exactly like the cost policy.
	Tuner *Tuner
}

// Run executes the query and returns its Result. The query is
// canonicalized in place.
func Run(q *Query) (*Result, error) { return RunContext(context.Background(), q) }

// RunContext is Run with cancellation, on the zero Exec environment:
// no cross-query pool, sequential groups, warm worlds within each
// group.
func RunContext(ctx context.Context, q *Query) (*Result, error) {
	return (&Exec{}).RunContext(ctx, q)
}

// pointGroup is one warm-world unit of a ladder: the indices of every
// point sharing (engine, fold unit), in ascending-size order.
type pointGroup struct {
	fold int
	idx  []int
}

// RunContext executes the query and returns its Result; the query is
// canonicalized in place. Ladder points are grouped by fold unit (the
// engine is fixed per query, so the fold unit is the only shape
// divergence inside one ladder) and each group runs on ONE world —
// checked out of the pool when the environment has one, built
// otherwise — with ResetClocks between points instead of a
// construct/close per point. Groups execute concurrently up to
// Parallelism. When ctx is cancelled every in-flight world is aborted
// (each blocked rank wakes with an error) and the context's error is
// returned.
func (e *Exec) RunContext(ctx context.Context, q *Query) (*Result, error) {
	if err := q.Canonicalize(); err != nil {
		return nil, err
	}
	fp, err := q.Fingerprint()
	if err != nil {
		return nil, err
	}
	model, err := q.Model()
	if err != nil {
		return nil, err
	}
	topo, err := q.Topology.Build()
	if err != nil {
		return nil, err
	}
	engine, err := sim.ParseEngine(q.Engine)
	if err != nil {
		return nil, err
	}
	cl, err := coll.ParseCollective(q.Collective)
	if err != nil {
		return nil, err
	}
	collTun, err := q.Tuning.Coll()
	if err != nil {
		return nil, err
	}
	noise, err := q.Noise.ToSim()
	if err != nil {
		return nil, err
	}
	nk := noiseKey(q.Noise)

	// Measured policy: bind the selections to one store snapshot before
	// anything (fold resolution included) consults the tuning, so the
	// fold units and the worlds' picks always agree.
	var tuneGen uint64
	if collTun.Policy == coll.PolicyMeasured && e.Tuner != nil {
		tuneGen = installMeasured(&collTun, e.Tuner, model, topo, noise, nk)
	}

	// Resolve every point's fold unit up front: the grouping key.
	// Noise that breaks rank symmetry self-disables folding — replica
	// ranks would no longer behave like their class representative.
	folds := make([]int, len(q.Sizes))
	for i, b := range q.Sizes {
		switch q.Fold {
		case "off":
		case "auto":
			if engine == sim.EngineEvent && !noise.BreaksSymmetry() {
				folds[i] = autoFoldUnit(model, topo, cl, b, collTun)
			}
		default:
			u, err := strconv.Atoi(q.Fold)
			if err != nil || u <= 0 {
				return nil, fmt.Errorf("spec: fold %q is not auto, off or a positive unit", q.Fold)
			}
			folds[i] = u
		}
	}
	groups := groupByFold(folds)

	res := &Result{
		Fingerprint: fp,
		Machine:     q.Machine,
		Topology:    topo.String(),
		Ranks:       topo.Size(),
		Collective:  q.Collective,
		Engine:      q.Engine,
		Iters:       q.Iters,
		Tuning:      q.Tuning.Spec(),
	}
	env := groupEnv{
		exec: e, model: model, topo: topo, engine: engine,
		tun: collTun, cl: cl, machine: q.Machine,
		tuning: q.Tuning.Spec(), sizes: q.Sizes, iters: q.Iters,
		noise: noise, noiseKey: nk, tuneGen: tuneGen,
	}
	points := make([]Point, len(q.Sizes))
	if err := e.runGroups(ctx, env, groups, points); err != nil {
		return nil, fmt.Errorf("spec: %s: %w", q.Collective, err)
	}
	res.Points = points
	return res, nil
}

// groupByFold partitions ladder indices by fold unit, groups ordered
// by first appearance in the ascending-size ladder, indices ascending
// within each group — fully deterministic, so a parallel run fills the
// same Points slots as a sequential one.
func groupByFold(folds []int) []pointGroup {
	var groups []pointGroup
	at := map[int]int{}
	for i, f := range folds {
		gi, ok := at[f]
		if !ok {
			gi = len(groups)
			at[f] = gi
			groups = append(groups, pointGroup{fold: f})
		}
		groups[gi].idx = append(groups[gi].idx, i)
	}
	return groups
}

// groupEnv carries the compiled query pieces every group shares.
type groupEnv struct {
	exec     *Exec
	model    *sim.CostModel
	topo     *sim.Topology
	engine   sim.Engine
	tun      coll.Tuning
	cl       coll.Collective
	machine  string
	tuning   string
	sizes    []int
	iters    int
	noise    *sim.Noise
	noiseKey string
	tuneGen  uint64
}

// noiseKey renders a canonical noise block as the pool ShapeKey's noise
// component ("" for a clean world): the canonical JSON is stable field
// order with sorted map keys, so equal configs key equal.
func noiseKey(n *Noise) string {
	if n == nil {
		return ""
	}
	data, err := json.Marshal(n)
	if err != nil {
		return fmt.Sprintf("unmarshalable:%v", err)
	}
	return string(data)
}

// runGroups executes every group, sequentially or bounded-parallel,
// and fills points (indexed like the ladder). The first failure wins;
// a shared cancel aborts the remaining groups' worlds so a sweep does
// not keep simulating past a dead point.
func (e *Exec) runGroups(ctx context.Context, env groupEnv, groups []pointGroup, points []Point) error {
	par := e.Parallelism
	if par <= 1 || len(groups) == 1 {
		for _, g := range groups {
			if err := runGroup(ctx, env, g, points); err != nil {
				return err
			}
		}
		return nil
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, par)
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for gi, g := range groups {
		wg.Add(1)
		sem <- struct{}{}
		go func(gi int, g pointGroup) {
			defer wg.Done()
			defer func() { <-sem }()
			if errs[gi] = runGroup(gctx, env, g, points); errs[gi] != nil {
				cancel()
			}
		}(gi, g)
	}
	wg.Wait()
	// Prefer the original failure over the cancellations it induced in
	// sibling groups; if every group reports cancellation (the outer
	// ctx died), the first one stands.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	return first
}

// runGroup executes one fold group on one warm world: checkout (or
// build), then ResetClocks+Run per ladder point, then check-in. A
// cancelled ctx aborts the world mid-Run; an aborted or failed world
// is never returned to the pool. With PerPointWorlds the group instead
// builds and closes a fresh world per point — the referee path.
func runGroup(ctx context.Context, env groupEnv, g pointGroup, points []Point) error {
	if env.exec.PerPointWorlds {
		for _, i := range g.idx {
			w, err := buildWorld(env, g.fold)
			if err != nil {
				return err
			}
			err = runPointOn(ctx, w, env, g.fold, i, points)
			w.Close()
			if err != nil {
				return err
			}
		}
		return nil
	}

	var (
		w   *mpi.World
		pw  *PooledWorld
		err error
	)
	if pool := env.exec.Pool; pool != nil {
		key := ShapeKey{
			Machine: env.machine, Topo: env.topo, Engine: env.engine,
			FoldUnit: g.fold, Tuning: env.tuning, Noise: env.noiseKey,
			TuneGen: env.tuneGen,
		}
		pw, err = pool.Checkout(key, func() (*mpi.World, error) { return buildWorld(env, g.fold) })
		if err != nil {
			return err
		}
		w = pw.W
		// Checkin inspects the world: an abort (cancellation, rank
		// failure) poisons it, and poisoned worlds are discarded, so
		// error paths need no special-casing here.
		defer pool.Checkin(pw)
	} else {
		if w, err = buildWorld(env, g.fold); err != nil {
			return err
		}
		defer w.Close()
	}

	for _, i := range g.idx {
		if err := runPointOn(ctx, w, env, g.fold, i, points); err != nil {
			return err
		}
	}
	return nil
}

// buildWorld constructs the group's world.
func buildWorld(env groupEnv, fold int) (*mpi.World, error) {
	return mpi.NewWorldConfig(env.model, env.topo, mpi.Config{
		Engine:     env.engine,
		FoldUnit:   fold,
		CollConfig: env.tun,
		Noise:      env.noise,
	})
}

// runPointOn executes ladder point i on the (possibly warm) world w
// and stores its Point. Clocks are reset first, so the measurement is
// independent of whatever ran on w before — the bit-identity
// guarantee against a cold world.
func runPointOn(ctx context.Context, w *mpi.World, env groupEnv, fold, i int, points []Point) error {
	b := env.sizes[i]

	// Cancellation: an expired context aborts the world, waking every
	// blocked rank. The watcher must be fully retired (not merely
	// signalled) before the world can be reused or checked in — a
	// straggling Abort after a clean Run would poison a parked world —
	// hence the done handshake.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ctx.Done():
			w.Abort()
		case <-stop:
		}
	}()
	w.ResetClocks()
	err := w.Run(func(p *mpi.Proc) error { return runOps(p, env.cl, b, env.iters) })
	close(stop)
	<-done
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return fmt.Errorf("at %d B: run cancelled: %w", b, ctxErr)
		}
		return fmt.Errorf("at %d B: %w", b, err)
	}
	virtual := w.MaxClock()
	points[i] = Point{
		Bytes:          b,
		FoldUnit:       fold,
		VirtualPs:      int64(virtual),
		VirtualUsPerOp: (virtual / sim.Time(env.iters)).Us(),
	}
	return nil
}
