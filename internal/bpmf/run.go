package bpmf

import (
	"fmt"
	"math"

	"repro/internal/coll"
	"repro/internal/hybrid"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Config describes one BPMF run.
type Config struct {
	// Users (compounds) and Items (targets); both are rounded up to a
	// multiple of the rank count so latent blocks stay uniform, as in
	// the reference code's block distribution.
	Users, Items int
	// K is the latent dimension (num_latent).
	K int
	// AvgDeg is the mean ratings per user of the synthetic dataset.
	AvgDeg int
	// Iters is the number of Gibbs iterations (the paper samples 20).
	Iters int
	// Seed drives the dataset and every sampling draw.
	Seed int64
	// Hybrid selects Hy_BPMF (hybrid allgather) over Ori_BPMF.
	Hybrid bool
	// Real runs the actual sampler (requires a real-data world);
	// otherwise only virtual compute/communication time is charged.
	Real bool
	// RowOverheadFlops is the fixed per-row sampling cost beyond pure
	// flops (library/RNG overhead); see EXPERIMENTS.md for the
	// calibration.
	RowOverheadFlops float64
	// Sync selects the hybrid synchronization flavor.
	Sync hybrid.SyncMode
}

// Result carries timing and (in Real mode) convergence evidence.
type Result struct {
	Makespan sim.Time
	RMSE     []float64 // per-iteration training RMSE (Real mode)
	Checksum float64   // digest of the final latent matrices (Real mode)
}

// Run executes the distributed Gibbs sampler and returns the virtual
// makespan of all iterations (the paper's TotalTime).
func Run(w *mpi.World, cfg Config) (Result, error) {
	if err := validate(w, cfg); err != nil {
		return Result{}, err
	}
	p := w.Size()
	cfg.Users = roundUp(cfg.Users, p)
	cfg.Items = roundUp(cfg.Items, p)

	ds := Synthetic(cfg.Users, cfg.Items, cfg.AvgDeg, cfg.Seed, cfg.Real)

	w.ResetClocks()
	results := make([]Result, w.Size())
	err := w.Run(func(proc *mpi.Proc) error {
		r, err := runRank(proc, cfg, ds)
		results[proc.Rank()] = r
		return err
	})
	if err != nil {
		return Result{}, err
	}
	out := results[0]
	out.Makespan = w.MaxClock()
	return out, nil
}

func validate(w *mpi.World, cfg Config) error {
	switch {
	case cfg.Users <= 0 || cfg.Items <= 0:
		return fmt.Errorf("bpmf: need positive Users/Items, got %d/%d", cfg.Users, cfg.Items)
	case cfg.K <= 0:
		return fmt.Errorf("bpmf: latent dimension %d", cfg.K)
	case cfg.Iters <= 0:
		return fmt.Errorf("bpmf: iterations %d", cfg.Iters)
	case cfg.AvgDeg <= 0:
		return fmt.Errorf("bpmf: average degree %d", cfg.AvgDeg)
	case cfg.Real && !w.RealData():
		return fmt.Errorf("bpmf: Real needs a world with real data (mpi.WithRealData)")
	case cfg.Users < w.Size() || cfg.Items < w.Size():
		return fmt.Errorf("bpmf: %d ranks need at least that many users and items", w.Size())
	}
	return nil
}

func roundUp(n, k int) int { return (n + k - 1) / k * k }

// phase bundles one side's state (items a.k.a. movies, or users).
type phase struct {
	name   string
	rows   int   // total rows on this side
	deg    []int // per-row degree
	idx    [][]int32
	val    [][]float64
	perRow int // bytes per latent row

	// Gathered latent matrix access: exactly one of these is set.
	pureBuf mpi.Buf             // private full copy (pure MPI)
	hyAg    *hybrid.Allgatherer // shared node copy (hybrid)
}

// buffer returns the full gathered latent matrix.
func (ph *phase) buffer() mpi.Buf {
	if ph.hyAg != nil {
		return ph.hyAg.Buffer()
	}
	return ph.pureBuf
}

// runRank is the per-rank Gibbs driver.
func runRank(proc *mpi.Proc, cfg Config, ds *Dataset) (Result, error) {
	world := proc.CommWorld()
	nRanks := world.Size()
	rank := world.Rank()
	kBytes := 8 * cfg.K

	var hier *coll.Hier
	var hctx *hybrid.Ctx
	var err error
	if cfg.Hybrid {
		if hctx, err = hybrid.New(world, hybrid.WithSync(cfg.Sync)); err != nil {
			return Result{}, err
		}
	} else {
		if hier, err = coll.NewHier(world); err != nil {
			return Result{}, err
		}
	}

	mkPhase := func(name string, rows int, deg []int, idx [][]int32, val [][]float64) (*phase, error) {
		ph := &phase{name: name, rows: rows, deg: deg, idx: idx, val: val, perRow: kBytes}
		if cfg.Hybrid {
			ag, err := hctx.NewAllgatherer(rows / nRanks * kBytes)
			if err != nil {
				return nil, err
			}
			ph.hyAg = ag
		} else {
			ph.pureBuf = proc.World().NewBuf(rows * kBytes)
		}
		return ph, nil
	}
	items, err := mkPhase("items", cfg.Items, ds.ItemDeg, ds.ItemIdx, ds.ItemVal)
	if err != nil {
		return Result{}, err
	}
	users, err := mkPhase("users", cfg.Users, ds.UserDeg, ds.UserIdx, ds.UserVal)
	if err != nil {
		return Result{}, err
	}

	// Initialize latent rows deterministically (each rank fills its
	// own block; hybrid writes land directly in the shared segment).
	var ws *sampler
	if cfg.Real {
		ws = newSampler(cfg.K)
	}
	for _, ph := range []*phase{items, users} {
		lo, hi := Share(ph.rows, nRanks, rank)
		if cfg.Real {
			blk := ph.myBlock(rank, nRanks)
			for r := lo; r < hi; r++ {
				ws.reseed(cfg.Seed, -1, ph.name, r)
				for c := range ws.mean {
					ws.mean[c] = 0.3 * ws.rng.NormFloat64()
				}
				blk.PutFloat64s((r-lo)*cfg.K, ws.mean)
			}
		}
		// The initial gather distributes the starting matrices.
		if err := ph.gather(proc, hier, rank, nRanks); err != nil {
			return Result{}, err
		}
	}

	res := Result{}
	for iter := 0; iter < cfg.Iters; iter++ {
		// Movies region, then users region — each ends in the
		// all-to-all gather (Sect. 5.2.2).
		if err := samplePhase(proc, cfg, ws, items, users, iter, hier, rank, nRanks); err != nil {
			return Result{}, err
		}
		if err := samplePhase(proc, cfg, ws, users, items, iter, hier, rank, nRanks); err != nil {
			return Result{}, err
		}
		if cfg.Real && rank == 0 {
			res.RMSE = append(res.RMSE, rmse(ds, users.buffer(), items.buffer(), cfg.K))
		}
	}

	if cfg.Real && rank == 0 {
		sum := 0.0
		for _, ph := range []*phase{items, users} {
			for _, x := range f64s(ph.buffer()) {
				sum += x
			}
		}
		res.Checksum = sum
	}
	return res, nil
}

// f64s returns a zero-copy float64 view of the buffer when one exists,
// falling back to an unpacking copy (size-only buffers, misalignment).
func f64s(b mpi.Buf) []float64 {
	if v := b.Float64sView(); v != nil {
		return v
	}
	return b.Float64s()
}

// myBlock returns this rank's writable slice of the gathered matrix.
func (ph *phase) myBlock(rank, nRanks int) mpi.Buf {
	per := ph.rows / nRanks * ph.perRow
	if ph.hyAg != nil {
		return ph.hyAg.Mine()
	}
	return ph.pureBuf.Slice(rank*per, per)
}

// gather runs the flavor-appropriate allgather of this phase's latent
// blocks.
func (ph *phase) gather(proc *mpi.Proc, hier *coll.Hier, rank, nRanks int) error {
	if ph.hyAg != nil {
		return ph.hyAg.Allgather()
	}
	per := ph.rows / nRanks * ph.perRow
	send := ph.pureBuf.Slice(rank*per, per)
	return hier.Allgather(send, ph.pureBuf, per)
}

// samplePhase samples this rank's rows of `side` conditioned on
// `other` (through ws, nil unless cfg.Real), charges virtual compute,
// and gathers the results.
func samplePhase(proc *mpi.Proc, cfg Config, ws *sampler, side, other *phase, iter int, hier *coll.Hier, rank, nRanks int) error {
	lo, hi := Share(side.rows, nRanks, rank)

	// Hyperparameter draw. The reference implementation computes it
	// redundantly on every rank from the gathered matrix, so every rank
	// is charged for it; the draw is a pure function of (seed, iter,
	// phase, gathered matrix), so the host computes it once per phase,
	// on whichever rank reaches the setup slot first, and every rank
	// reads that one draw (sampleRow copies what it updates).
	proc.Compute(hyperFlops(side.rows, cfg.K))
	var h hyper
	var otherVals []float64
	if cfg.Real {
		v, err := mpi.SetupOnce(proc.CommWorld(), func() (any, error) {
			// The builder reads its own complete copy of `side`: its
			// private buffer, or its node's segment.
			ws.reseed(cfg.Seed, iter, side.name, hyperRow)
			return ws.sampleHyper(f64s(side.buffer()), side.rows)
		})
		if err != nil {
			return err
		}
		h = v.(hyper)
		// Reading `other` through a zero-copy view is safe: no rank
		// writes it until its next phase, which every on-node peer
		// reaches only after this phase's closing gather.
		otherVals = f64s(other.buffer())
	}
	// Hybrid flavor: the reference code's ranks each read the shared
	// segment for the statistics and then overwrite their own rows of
	// it, so they fence the reads from the writes (the epoch discipline
	// of hybrid.Allgatherer.ReadFence), and the fence is charged here
	// as theirs. On the host the one read of the segment is the draw's
	// build, and SetupOnce returns to no member before the build is
	// done, so that read already precedes every member's writes; the
	// fence adds the node rendezvous the model times.
	if side.hyAg != nil {
		if err := side.hyAg.ReadFence(); err != nil {
			return err
		}
	}

	// Row conditionals.
	flops := 0.0
	blk := side.myBlock(rank, nRanks)
	for r := lo; r < hi; r++ {
		flops += rowFlops(cfg.K, side.deg[r], cfg.RowOverheadFlops)
		if cfg.Real {
			ws.reseed(cfg.Seed, iter, side.name, r)
			if err := ws.sampleRow(h, otherVals, side.idx[r], side.val[r]); err != nil {
				return fmt.Errorf("bpmf: %s row %d: %w", side.name, r, err)
			}
			blk.PutFloat64s((r-lo)*cfg.K, ws.mean)
		}
	}
	proc.Compute(flops)

	// The phase-ending allgather. (The alternation of the two phases
	// is what makes single-buffered shared segments safe: phase X's
	// synchronization orders every read of phase Y's previous epoch
	// before Y's next write.)
	return side.gather(proc, hier, rank, nRanks)
}

// rmse evaluates training RMSE over all materialized entries.
func rmse(ds *Dataset, userBuf, itemBuf mpi.Buf, k int) float64 {
	u := f64s(userBuf)
	v := f64s(itemBuf)
	sum, n := 0.0, 0
	for uu := range ds.UserIdx {
		urow := rowOf(u, k, uu)
		for t, j := range ds.UserIdx[uu] {
			d := ds.UserVal[uu][t] - dot(urow, rowOf(v, k, int(j)))
			sum += d * d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}
