// Command ablations quantifies the design choices DESIGN.md calls out,
// beyond what the paper itself measures:
//
//   - synchronization flavor (barrier vs p2p flags vs shared flags,
//     paper Sect. 6);
//   - leader count in the pure-MPI hierarchy (single- vs multi-leader,
//     the related-work alternative [14]) against the hybrid scheme;
//   - pure allgather algorithm family at fixed shape;
//   - chunked ("pipelined", [30]) vs plain bridge exchange — a negative
//     result under a LogGP model (see EXPERIMENTS.md);
//   - barrier algorithms (dissemination vs central counter);
//   - deterministic noise drift: how far seeded jitter, stragglers and
//     congestion move an allreduce makespan off the clean timeline,
//     and how much it varies across seeds;
//   - selection under noise: the table, cost and measured policies'
//     picks against a race of every allreduce algorithm.
//
// The hybrid alltoall's negative result (one leader per node loses on
// large blocks) is pinned by internal/hybrid's ExampleCtx_NewAlltoaller
// and written up in EXPERIMENTS.md.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/bench"
	"repro/internal/coll"
	"repro/internal/hybrid"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "ablations:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ablations", flag.ContinueOnError)
	fs.SetOutput(stderr)
	machine := fs.String("machine", "hazelhen-cray", "machine profile")
	if err := fs.Parse(args); err != nil {
		return err
	}
	model, err := sim.Profile(*machine)
	if err != nil {
		return err
	}
	for _, f := range []func(io.Writer, *sim.CostModel) error{
		syncFlavors, leaderCounts, allgatherAlgos, pipelined, barriers, noiseDrift,
		noiseSelection,
	} {
		if err := f(stdout, model); err != nil {
			return err
		}
	}
	return nil
}

// race times every algorithm of cl that can serve e over body on w
// (coll.Race) and returns the times by algorithm name.
func race(w *mpi.World, cl coll.Collective, e coll.Env, body func(*mpi.Comm) error) (map[string]sim.Time, error) {
	laps, err := coll.Race(w, cl, e, body)
	byName := make(map[string]sim.Time, len(laps))
	for _, l := range laps {
		byName[l.Name] = l.Time
	}
	return byName, err
}

// timed runs body once on w's world communicator from zeroed clocks
// and returns the makespan.
func timed(w *mpi.World, body func(*mpi.Comm) error) (sim.Time, error) {
	w.ResetClocks()
	err := w.Run(func(p *mpi.Proc) error { return body(p.CommWorld()) })
	return w.MaxClock(), err
}

// hyAllgathers is the rank body of the tables that set what a Query
// cannot state: iters hybrid allgathers of per bytes under sync, the
// bridge exchange chunked at chunk bytes (0: plain); setup untimed.
func hyAllgathers(per, iters int, sync hybrid.SyncMode, chunk int) func(p *mpi.Proc) error {
	return func(p *mpi.Proc) error {
		ctx, err := hybrid.New(p.CommWorld(), hybrid.WithSync(sync))
		if err != nil {
			return err
		}
		a, err := ctx.NewAllgatherer(per, hybrid.WithPipelineChunk(chunk))
		if err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
			if err := a.Allgather(); err != nil {
				return err
			}
		}
		return nil
	}
}

func syncFlavors(out io.Writer, model *sim.CostModel) error {
	t := &bench.Table{
		Name:   "Ablation: hybrid allgather synchronization flavor (8 nodes x 24 ranks, us per op)",
		Note:   "Sect. 6: the paper uses barriers; flag-based schemes are the 'light-weight means'.",
		Header: []string{"elems", "barrier", "p2p", "sharedflags"},
	}
	for _, elems := range []int{1, 512, 16384} {
		row := []string{fmt.Sprint(elems)}
		for _, mode := range []hybrid.SyncMode{hybrid.SyncBarrier, hybrid.SyncP2P, hybrid.SyncSharedFlags} {
			lat, err := bench.Makespan(model, sim.MustUniform(8, 24), hyAllgathers(8*elems, 5, mode, 0))
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.2f", (lat/5).Us()))
		}
		t.AddRow(row...)
	}
	return t.Fprint(out)
}

func leaderCounts(out io.Writer, model *sim.CostModel) error {
	t := &bench.Table{
		Name:   "Ablation: leaders per node, pure-MPI hierarchy vs hybrid (8 nodes x 24 ranks, us per op)",
		Note:   "Multi-leader [14] parallelizes the intra-node phases; the hybrid scheme removes them.",
		Header: []string{"elems", "1-leader", "2-leader", "4-leader", "8-leader", "hybrid"},
	}
	topo, elemsList := sim.MustUniform(8, 24), []int{64, 2048, 16384}
	hyq := bench.AllgatherQuery(model.Name, spec.Topology{Nodes: 8, PPN: 24}, elemsList, true)
	hyq.Iters = 3
	hy, err := spec.Run(hyq)
	if err != nil {
		return err
	}
	for i, elems := range elemsList {
		per := 8 * elems
		row := []string{fmt.Sprint(elems)}
		for _, leaders := range []int{1, 2, 4, 8} {
			lat, err := bench.Makespan(model, topo, func(p *mpi.Proc) error {
				m, err := coll.NewMultiLeaderHier(p.CommWorld(), leaders)
				if err != nil {
					return err
				}
				recv := mpi.Sized(per * p.Size())
				for i := 0; i < 3; i++ {
					if err := m.Allgather(mpi.Sized(per), recv, per); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.2f", (lat/3).Us()))
		}
		row = append(row, fmt.Sprintf("%.2f", hy.Points[i].VirtualUsPerOp))
		t.AddRow(row...)
	}
	return t.Fprint(out)
}

func allgatherAlgos(out io.Writer, model *sim.CostModel) error {
	t := &bench.Table{
		Name:   "Ablation: flat allgather algorithms (16 nodes x 1 rank, us per op)",
		Note:   "The classic family [28]; the tuned selector picks per size.",
		Header: []string{"elems", "ring", "recdbl", "bruck", "neighbor", "auto"},
	}
	w, err := mpi.NewWorld(model, sim.MustUniform(16, 1))
	if err != nil {
		return err
	}
	defer w.Close()
	for _, elems := range []int{1, 64, 4096, 65536} {
		per := 8 * elems
		body := func(c *mpi.Comm) error {
			return coll.Allgather(c, mpi.Sized(per), mpi.Sized(per*c.Size()), per)
		}
		lat, err := race(w, coll.CollAllgather, coll.Env{Size: w.Size(), Bytes: per}, body)
		if err != nil {
			return err
		}
		if lat["auto"], err = timed(w, body); err != nil {
			return err
		}
		row := []string{fmt.Sprint(elems)}
		for _, col := range t.Header[1:] {
			row = append(row, fmt.Sprintf("%.2f", lat[col].Us()))
		}
		t.AddRow(row...)
	}
	return t.Fprint(out)
}

func pipelined(out io.Writer, model *sim.CostModel) error {
	t := &bench.Table{
		Name:   "Ablation: chunked (pipelined [30]) vs plain bridge exchange (8 nodes x 4 ranks, large blocks)",
		Note:   "Negative result: a ring is already pipelined at block granularity; chunking only adds latency.",
		Header: []string{"block_KiB", "plain_us", "chunked128K_us"},
	}
	topo := sim.MustUniform(8, 4)
	for _, kib := range []int{128, 512, 2048} {
		per := kib << 10
		row := []string{fmt.Sprint(kib)}
		for _, chunk := range []int{0, 128 << 10} {
			lat, err := bench.Makespan(model, topo, hyAllgathers(per, 1, hybrid.SyncBarrier, chunk))
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.2f", lat.Us()))
		}
		t.AddRow(row...)
	}
	return t.Fprint(out)
}

// allreduces is the rank body of the noise-selection race: iters
// back-to-back float64 sum allreduces of elems elements.
func allreduces(elems, iters int) func(c *mpi.Comm) error {
	return func(c *mpi.Comm) error {
		send, recv := mpi.Sized(elems*8), mpi.Sized(elems*8)
		for i := 0; i < iters; i++ {
			if err := coll.Allreduce(c, send, recv, elems, mpi.Float64, mpi.OpSum); err != nil {
				return err
			}
		}
		return nil
	}
}

func noiseDrift(out io.Writer, model *sim.CostModel) error {
	t := &bench.Table{
		Name:   "Ablation: deterministic noise drift (8 nodes x 8 ranks, 4096-elem allreduce, us per op)",
		Note:   "Seeded noise moves the timeline off the clean run; per-seed spread (5 seeds) is the\nsensitivity any clean-machine tuning decision is exposed to under perturbation.",
		Header: []string{"noise", "mean_us", "min_us", "max_us", "drift_vs_clean", "seed_spread"},
	}
	const elems, iters = 4096, 2
	levels := []struct {
		label string
		mk    func(seed int64) *sim.Noise
	}{
		{"clean", func(int64) *sim.Noise { return nil }},
		{"jitter=0.1", func(seed int64) *sim.Noise {
			return &sim.Noise{Seed: seed, Jitter: 0.1}
		}},
		{"jitter=0.3", func(seed int64) *sim.Noise {
			return &sim.Noise{Seed: seed, Jitter: 0.3}
		}},
		{"straggler x4", func(seed int64) *sim.Noise {
			return &sim.Noise{Seed: seed, Stragglers: []int{0}, StragglerFactor: 4}
		}},
		{"mixed", func(seed int64) *sim.Noise {
			return &sim.Noise{Seed: seed, Jitter: 0.2, Stragglers: []int{0}, StragglerFactor: 2,
				Congestion: map[sim.HopClass]float64{sim.HopNet: 2}}
		}},
	}
	measure := func(n *sim.Noise) (float64, error) {
		res, err := spec.Run(&spec.Query{
			Machine:    model.Name,
			Topology:   spec.Topology{Nodes: 8, PPN: 8},
			Collective: "allreduce",
			Sizes:      []int{8 * elems},
			Iters:      iters,
			Noise:      n,
		})
		if err != nil {
			return 0, err
		}
		return res.Points[0].VirtualUsPerOp, nil
	}
	var clean float64
	for _, lvl := range levels {
		seeds := []int64{1, 2, 3, 4, 5}
		if lvl.label == "clean" {
			seeds = seeds[:1] // seeds only key noise draws
		}
		var lats []float64
		for _, seed := range seeds {
			lat, err := measure(lvl.mk(seed))
			if err != nil {
				return fmt.Errorf("noise drift %q seed %d: %w", lvl.label, seed, err)
			}
			lats = append(lats, lat)
		}
		minL, maxL, sum := lats[0], lats[0], 0.0
		for _, l := range lats {
			if l < minL {
				minL = l
			}
			if l > maxL {
				maxL = l
			}
			sum += l
		}
		mean := sum / float64(len(lats))
		if lvl.label == "clean" {
			clean = mean
		}
		t.AddRow(lvl.label,
			fmt.Sprintf("%.2f", mean), fmt.Sprintf("%.2f", minL), fmt.Sprintf("%.2f", maxL),
			fmt.Sprintf("%+.1f%%", (mean/clean-1)*100),
			fmt.Sprintf("%.1f%%", (maxL-minL)/mean*100))
	}
	return t.Fprint(out)
}

// noiseSelection answers the ROADMAP drift question: the selection
// engine prices a CLEAN machine, so how far do its table/cost picks sit
// from the per-seed optimal once the world is noisy? Per noise level
// and seed, selectionPoint races every allreduce algorithm; the seed's
// optimal is the fastest lap, and each policy's drift is its own
// virtual time over that optimum. Because the noise draws are
// seed-deterministic, a policy run's time equals its chosen algorithm's
// lap exactly, which is how the pick columns are recovered.
func noiseSelection(out io.Writer, model *sim.CostModel) error {
	t := &bench.Table{
		Name: "Ablation: selection drift under noise (8 nodes x 8 ranks allreduce, mean of 5 seeds)",
		Note: "Noise-blind policies keep their clean-machine choice; drift is the price of that choice\n" +
			"against the per-seed fastest forced algorithm. The measured policy replays the per-seed\n" +
			"race winner from its tuning store, so its drift is zero by construction — the row verifies\n" +
			"the store-served pick really reproduces the optimum. Picks shown for seed 1.",
		Header: []string{"elems", "noise", "table_pick", "cost_pick", "measured_pick", "optimal", "table_drift", "cost_drift", "measured_drift"},
	}
	levels := []struct {
		label string
		mk    func(seed int64) *sim.Noise
	}{
		{"clean", func(int64) *sim.Noise { return nil }},
		{"jitter=0.5", func(seed int64) *sim.Noise {
			return &sim.Noise{Seed: seed, Jitter: 0.5}
		}},
		{"straggler x8", func(seed int64) *sim.Noise {
			return &sim.Noise{Seed: seed, Stragglers: []int{0}, StragglerFactor: 8}
		}},
		{"congestion net=16", func(seed int64) *sim.Noise {
			return &sim.Noise{Seed: seed, Congestion: map[sim.HopClass]float64{sim.HopNet: 16}}
		}},
		{"mixed", func(seed int64) *sim.Noise {
			return &sim.Noise{Seed: seed, Jitter: 0.2, Stragglers: []int{0}, StragglerFactor: 4,
				Congestion: map[sim.HopClass]float64{sim.HopNet: 4}}
		}},
	}
	for _, elems := range []int{128, 2048, 16384} {
		for _, lvl := range levels {
			seeds := []int64{1, 2, 3, 4, 5}
			if lvl.label == "clean" {
				seeds = seeds[:1] // seeds only key noise draws
			}
			row := []string{fmt.Sprint(elems), lvl.label}
			var drift [3]float64
			for _, seed := range seeds {
				laps, best, pol, err := selectionPoint(model, lvl.mk(seed), elems)
				if err != nil {
					return fmt.Errorf("noise selection %q seed %d: %w", lvl.label, seed, err)
				}
				for i, lat := range pol {
					drift[i] += float64(lat)/float64(best.Time) - 1
				}
				if seed != seeds[0] {
					continue
				}
				for _, lat := range pol {
					pick := "?"
					for _, l := range laps {
						if l.Time == lat {
							pick = l.Name
							break
						}
					}
					row = append(row, pick)
				}
				row = append(row, best.Name)
			}
			for _, d := range drift {
				row = append(row, fmt.Sprintf("%+.1f%%", d/float64(len(seeds))*100))
			}
			t.AddRow(row...)
		}
	}
	return t.Fprint(out)
}

// selectionPoint races every allreduce algorithm at elems on one 8x8
// world under noise n (the measured policy's candidate race: the first
// fastest lap in registration order is best), then times the table, cost and
// measured policies on the same world, the last serving best through
// the real Lookup path as a warm tuning store would.
func selectionPoint(model *sim.CostModel, n *sim.Noise, elems int) (laps []coll.Lap, best coll.Lap, pol [3]sim.Time, err error) {
	w, err := mpi.NewWorld(model, sim.MustUniform(8, 8), mpi.WithNoise(n))
	if err != nil {
		return nil, best, pol, err
	}
	defer w.Close()
	body := allreduces(elems, 2)
	if laps, err = coll.Race(w, coll.CollAllreduce, coll.Env{Size: w.Size(), Count: elems}, body); err != nil {
		return nil, best, pol, err
	}
	best = slices.MinFunc(laps, func(a, b coll.Lap) int { return cmp.Compare(a.Time, b.Time) })
	measured := coll.Tuning{Policy: coll.PolicyMeasured, Lookup: func(cl coll.Collective, e coll.Env) (string, bool) {
		return best.Name, cl == coll.CollAllreduce && e.Size == w.Size()
	}}
	for i, tun := range []coll.Tuning{{Policy: coll.PolicyTable}, {Policy: coll.PolicyCost}, measured} {
		if pol[i], err = timed(w, func(c *mpi.Comm) error { return body(coll.WithTuning(c, tun)) }); err != nil {
			return nil, best, pol, err
		}
	}
	return laps, best, pol, nil
}

func barriers(out io.Writer, model *sim.CostModel) error {
	t := &bench.Table{
		Name:   "Ablation: barrier algorithms (us per barrier)",
		Note:   "Dissemination (runtime default) vs central counter; single-node barriers take the shm fast path.",
		Header: []string{"shape", "dissemination", "central"},
	}
	for _, shape := range [][]int{{24}, slices.Repeat([]int{24}, 8)} {
		topo, err := sim.NewTopology(shape)
		if err != nil {
			return err
		}
		w, err := mpi.NewWorld(model, topo)
		if err != nil {
			return err
		}
		lat, err := race(w, coll.CollBarrier, coll.Env{Size: w.Size()}, func(c *mpi.Comm) error {
			for i := 0; i < 4; i++ {
				if err := coll.Barrier(c); err != nil {
					return err
				}
			}
			return nil
		})
		w.Close()
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprint(shape), fmt.Sprintf("%.2f", (lat["dissemination"]/4).Us()), fmt.Sprintf("%.2f", (lat["central"]/4).Us()))
	}
	return t.Fprint(out)
}
