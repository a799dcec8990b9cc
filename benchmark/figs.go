package main

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/bpmf"
	"repro/internal/coll"
	"repro/internal/hybrid"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/summa"
)

// The paper's Fig. 9 point: 64 nodes of 24 ranks, 512 doubles, two
// operations per world.
const (
	microNodes = 64
	microPPN   = 24
	microBytes = 8 * 512
	microIters = 2
)

// rankBody is what one component runs on every rank. Only rank 0
// records spans (under parent), so tr needs no lock.
type rankBody func(tr *tracer, parent int, iters int) func(p *mpi.Proc) error

// microComponents are the four runs of one fig-micro op, each on a
// fresh size-only world, with their golden-file keys.
var microComponents = []struct {
	key  string
	body rankBody
}{
	{"fig-micro/hy_allgather", hyAllgatherBody},
	{"fig-micro/pure_allgather", pureAllgatherBody},
	{"fig-micro/hy_bcast", hyBcastBody},
	{"fig-micro/pure_bcast", pureBcastBody},
}

// loop runs call iters times on this rank, each under its own span.
func loop(tr *tracer, parent int, name string, iters int, call func() error) error {
	for i := 0; i < iters; i++ {
		s := tr.begin(name, parent)
		err := call()
		tr.end(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// onRank0 is tr on rank 0 and the discarding nil tracer elsewhere.
func (t *tracer) onRank0(p *mpi.Proc) *tracer {
	if p.Rank() == 0 {
		return t
	}
	return nil
}

func hyAllgatherBody(tr *tracer, parent, iters int) func(p *mpi.Proc) error {
	return func(p *mpi.Proc) error {
		tr := tr.onRank0(p)
		s := tr.begin("hybrid.setup", parent)
		ctx, err := hybrid.New(p.CommWorld())
		if err != nil {
			return err
		}
		a, err := ctx.NewAllgatherer(microBytes)
		tr.end(s)
		if err != nil {
			return err
		}
		return loop(tr, parent, "hybrid.allgather", iters, a.Allgather)
	}
}

func pureAllgatherBody(tr *tracer, parent, iters int) func(p *mpi.Proc) error {
	return func(p *mpi.Proc) error {
		tr := tr.onRank0(p)
		s := tr.begin("coll.hier_setup", parent)
		h, err := coll.NewHier(p.CommWorld())
		tr.end(s)
		if err != nil {
			return err
		}
		send, recv := mpi.Sized(microBytes), mpi.Sized(microBytes*p.Size())
		return loop(tr, parent, "coll.hier_allgather", iters, func() error {
			return h.Allgather(send, recv, microBytes)
		})
	}
}

func hyBcastBody(tr *tracer, parent, iters int) func(p *mpi.Proc) error {
	return func(p *mpi.Proc) error {
		tr := tr.onRank0(p)
		s := tr.begin("hybrid.setup", parent)
		ctx, err := hybrid.New(p.CommWorld())
		if err != nil {
			return err
		}
		b, err := ctx.NewBcaster(microBytes)
		tr.end(s)
		if err != nil {
			return err
		}
		return loop(tr, parent, "hybrid.bcast", iters, func() error { return b.Bcast(0) })
	}
}

func pureBcastBody(tr *tracer, parent, iters int) func(p *mpi.Proc) error {
	return func(p *mpi.Proc) error {
		tr := tr.onRank0(p)
		s := tr.begin("coll.hier_setup", parent)
		h, err := coll.NewHier(p.CommWorld())
		tr.end(s)
		if err != nil {
			return err
		}
		buf := mpi.Sized(microBytes)
		return loop(tr, parent, "coll.hier_bcast", iters, func() error { return h.Bcast(buf, 0) })
	}
}

// runOnFreshWorld builds a world, runs body on it, closes it and
// returns the virtual makespan in picoseconds, with one span per call
// into mpi.
func runOnFreshWorld(tr *tracer, parent int, model *sim.CostModel, topo *sim.Topology, body rankBody, iters int, opts ...mpi.Option) (int64, error) {
	s := tr.begin("mpi.world_build", parent)
	w, err := mpi.NewWorld(model, topo, opts...)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin("mpi.run", parent)
	err = w.Run(body(tr, s, iters))
	tr.end(s)
	ps := int64(w.MaxClock())
	s = tr.begin("mpi.world_close", parent)
	w.Close()
	tr.end(s)
	return ps, err
}

// figMicro is the fig-micro workload: see BENCHMARK.json for why.
type figMicro struct {
	env   *env
	model *sim.CostModel
	topo  *sim.Topology
	order [][]int // per op, the seeded order of the four components
}

func newFigMicro(e *env) (instance, error) {
	topo, err := sim.Uniform(microNodes, microPPN)
	if err != nil {
		return nil, err
	}
	f := &figMicro{env: e, model: sim.HazelHenCray(), topo: topo, order: make([][]int, e.ops)}
	rng := rand.New(rand.NewSource(e.seed))
	for i := range f.order {
		f.order[i] = rng.Perm(len(microComponents))
	}
	return f, nil
}

func (f *figMicro) op(i int) bool {
	root := f.env.tr.begin("harness.op", -1)
	defer f.env.tr.end(root)
	ok := true
	for _, c := range f.order[i] {
		comp := microComponents[c]
		ps, err := runOnFreshWorld(f.env.tr, root, f.model, f.topo, comp.body, microIters)
		if err != nil {
			f.env.note("%s: %v", comp.key, err)
			ok = false
			continue
		}
		ok = f.env.pin(comp.key, ps) && ok
	}
	return ok
}

func (f *figMicro) verify(int, int) int          { return 0 }
func (f *figMicro) counters() map[string]float64 { return nil }
func (f *figMicro) close()                       {}

// The fig-apps shapes: SUMMA on a 4x4 grid over four nodes, BPMF on 24
// ranks over two, so both the bridge and the shared-window paths carry
// real payloads.
const (
	summaGrid  = 4
	summaBlock = 64
	bpmfRanks  = 24
	bpmfIters  = 3
)

// goldenSeed is the seed golden.json pins seeded components at.
const goldenSeed = 1

// figApps is the fig-apps workload: see BENCHMARK.json for why.
type figApps struct {
	env       *env
	model     *sim.CostModel
	summaTopo *sim.Topology
	bpmfTopo  *sim.Topology
	cfg       bpmf.Config
	// The golden-file keys of the Ori and Hy runs. BPMF's data come
	// from the seed: golden.json pins it at goldenSeed, and on any
	// other seed the key names the seed and the first value seen
	// becomes the run's own pin, so the op is still checked for
	// repeating exactly.
	summaKeys, bpmfKeys [2]string
}

func newFigApps(e *env) (instance, error) {
	summaTopo, err := sim.Uniform(4, summaGrid*summaGrid/4)
	if err != nil {
		return nil, err
	}
	bpmfTopo, err := sim.Uniform(2, bpmfRanks/2)
	if err != nil {
		return nil, err
	}
	bpmfKeys := [2]string{"fig-apps/bpmf_hybrid=false", "fig-apps/bpmf_hybrid=true"}
	if e.seed != goldenSeed {
		for i := range bpmfKeys {
			bpmfKeys[i] += fmt.Sprintf("@seed=%d", e.seed)
		}
	}
	return &figApps{
		env: e, model: sim.HazelHenCray(), summaTopo: summaTopo, bpmfTopo: bpmfTopo,
		summaKeys: [2]string{"fig-apps/summa_hybrid=false", "fig-apps/summa_hybrid=true"}, bpmfKeys: bpmfKeys,
		// The Fig. 12 calibration (degree 4, 3e6 flops of per-row
		// overhead) at a size a real sampler finishes in tens of ms.
		cfg: bpmf.Config{
			Users: 1200, Items: 240, K: 10, AvgDeg: 4, Iters: bpmfIters,
			Seed: e.seed, Real: true, RowOverheadFlops: 3e6,
		},
	}, nil
}

// appWorld builds the real-data world one application run owns.
func (f *figApps) appWorld(parent int, topo *sim.Topology) (*mpi.World, error) {
	s := f.env.tr.begin("mpi.world_build", parent)
	defer f.env.tr.end(s)
	return mpi.NewWorld(f.model, topo, mpi.WithRealData())
}

func (f *figApps) closeWorld(parent int, w *mpi.World) {
	s := f.env.tr.begin("mpi.world_close", parent)
	w.Close()
	f.env.tr.end(s)
}

func (f *figApps) op(int) bool {
	tr := f.env.tr
	root := tr.begin("harness.op", -1)
	defer tr.end(root)
	ok := true
	fail := func(format string, args ...any) {
		f.env.note(format, args...)
		ok = false
	}
	for i, hy := range []bool{false, true} {
		w, err := f.appWorld(root, f.summaTopo)
		if err != nil {
			fail("fig-apps summa world: %v", err)
			continue
		}
		s := tr.begin("summa.run", root)
		res, err := summa.Run(w, summa.Config{GridDim: summaGrid, BlockDim: summaBlock, Hybrid: hy, Verify: true})
		tr.end(s)
		f.closeWorld(root, w)
		switch {
		case err != nil:
			fail("fig-apps summa hybrid=%v: %v", hy, err)
		case !res.Verified:
			fail("fig-apps summa hybrid=%v: product not verified", hy)
		default:
			ok = f.env.pin(f.summaKeys[i], int64(res.Makespan)) && ok
		}
	}
	var results [2]bpmf.Result
	for i, hy := range []bool{false, true} {
		w, err := f.appWorld(root, f.bpmfTopo)
		if err != nil {
			fail("fig-apps bpmf world: %v", err)
			return false
		}
		cfg := f.cfg
		cfg.Hybrid = hy
		s := tr.begin("bpmf.run", root)
		results[i], err = bpmf.Run(w, cfg)
		tr.end(s)
		f.closeWorld(root, w)
		if err != nil {
			fail("fig-apps bpmf hybrid=%v: %v", hy, err)
			return false
		}
		if f.env.seed != goldenSeed {
			f.env.golden.learn(f.bpmfKeys[i], int64(results[i].Makespan))
		}
		ok = f.env.pin(f.bpmfKeys[i], int64(results[i].Makespan)) && ok
	}
	ori, hyb := results[0], results[1]
	if ori.Checksum != hyb.Checksum || len(ori.RMSE) != bpmfIters || !slices.Equal(ori.RMSE, hyb.RMSE) {
		fail("fig-apps bpmf: Ori and Hy disagree: checksum %v vs %v, rmse %v vs %v", ori.Checksum, hyb.Checksum, ori.RMSE, hyb.RMSE)
	}
	return ok
}

func (f *figApps) verify(int, int) int          { return 0 }
func (f *figApps) counters() map[string]float64 { return nil }
func (f *figApps) close()                       {}
