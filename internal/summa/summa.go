// Package summa implements SUMMA (Scalable Universal Matrix
// Multiplication Algorithm, van de Geijn & Watts [32]) on the simulated
// cluster, in the two flavors the paper benchmarks in Fig. 11:
//
//   - Ori_SUMMA: the pure-MPI version, whose per-iteration row and
//     column broadcasts give every rank its own copy of the travelling
//     panels (coll.Bcast);
//   - Hy_SUMMA: the hybrid MPI+MPI version, which broadcasts into one
//     shared panel per node (hybrid.Bcaster) so on-node ranks read the
//     single copy directly.
//
// The grid is square (sqrt(P) x sqrt(P)), each rank owns b x b blocks of
// A, B and C, and iteration k broadcasts A's column-k panel along rows
// and B's row-k panel along columns before the local rank-b update —
// exactly the structure of Sect. 5.2.1.
//
// A verified run checks the gathered C bit for bit against the reference
// product A x B, which host goroutines compute in block-row bands while
// the simulated ranks run.
package summa

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/coll"
	"repro/internal/hybrid"
	"repro/internal/la"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Config describes one SUMMA run.
type Config struct {
	// GridDim is sqrt(P): the process grid is GridDim x GridDim.
	GridDim int
	// BlockDim is b: each rank owns b x b blocks (the per-core matrix
	// size of Fig. 11's panels).
	BlockDim int
	// Hybrid selects Hy_SUMMA (hybrid broadcasts) over Ori_SUMMA.
	Hybrid bool
	// Verify runs with real data and checks the C gathered at rank 0
	// against the reference product A x B, computed on the host beside
	// the simulation (small configurations only).
	Verify bool
	// Sync selects the hybrid synchronization flavor (Hybrid only).
	Sync hybrid.SyncMode
}

// Result carries the timing (virtual) and verification outcome.
type Result struct {
	Makespan sim.Time // max rank clock over the whole multiplication
	Verified bool
}

func (cfg Config) validate(worldSize int) error {
	p := cfg.GridDim * cfg.GridDim
	switch {
	case cfg.GridDim <= 0:
		return fmt.Errorf("summa: grid dimension %d", cfg.GridDim)
	case cfg.BlockDim <= 0:
		return fmt.Errorf("summa: block dimension %d", cfg.BlockDim)
	case p != worldSize:
		return fmt.Errorf("summa: grid %dx%d needs %d ranks, world has %d",
			cfg.GridDim, cfg.GridDim, p, worldSize)
	}
	return nil
}

// gather is coll.Gather; a test plants a wrong element through it.
var gather = coll.Gather

// Run executes SUMMA on the world and returns the virtual makespan.
func Run(w *mpi.World, cfg Config) (Result, error) {
	if err := cfg.validate(w.Size()); err != nil {
		return Result{}, err
	}
	if cfg.Verify && !w.RealData() {
		return Result{}, fmt.Errorf("summa: Verify needs a world with real data (mpi.WithRealData)")
	}
	var ref *reference
	if cfg.Verify {
		ref = startReference(cfg)
	}
	w.ResetClocks()
	var c mpi.Buf
	err := w.Run(func(p *mpi.Proc) error {
		gathered, err := runRank(p, cfg)
		if p.Rank() == 0 {
			c = gathered
		}
		return err
	})
	if ref != nil {
		ref.done.Wait()
	}
	if err != nil {
		return Result{}, err
	}
	res := Result{Makespan: w.MaxClock()}
	if ref != nil {
		if err := ref.check(c); err != nil {
			return Result{}, err
		}
		res.Verified = true
	}
	return res, nil
}

// runRank is the per-rank SUMMA body; under Verify it returns the C
// gathered at rank 0 (and an empty buffer elsewhere).
func runRank(p *mpi.Proc, cfg Config) (mpi.Buf, error) {
	dim, b := cfg.GridDim, cfg.BlockDim
	world := p.CommWorld()
	myRow := world.Rank() / dim
	myCol := world.Rank() % dim

	rowComm, err := world.Split(myRow, myCol)
	if err != nil {
		return mpi.Buf{}, err
	}
	colComm, err := world.Split(myCol+dim, myRow) // offset colors to taste
	if err != nil {
		return mpi.Buf{}, err
	}

	blockBytes := 8 * b * b
	var aBlock, bBlock, cBlock *la.Mat
	if cfg.Verify {
		aBlock, bBlock = localBlocks(p.Rank(), b)
		cBlock = la.NewMat(b, b)
	}

	if cfg.Hybrid {
		err = runHybrid(p, cfg, rowComm, colComm, aBlock, bBlock, cBlock, blockBytes, myRow, myCol)
	} else {
		err = runPure(p, cfg, rowComm, colComm, aBlock, bBlock, cBlock, blockBytes, myRow, myCol)
	}
	if err != nil || !cfg.Verify {
		return mpi.Buf{}, err
	}
	return gatherC(world, cBlock, blockBytes)
}

// runPure is Ori_SUMMA: plain MPI_Bcast on row and column communicators.
func runPure(p *mpi.Proc, cfg Config, rowComm, colComm *mpi.Comm,
	aBlock, bBlock, cBlock *la.Mat, blockBytes, myRow, myCol int) error {

	dim, b := cfg.GridDim, cfg.BlockDim
	aPanel := p.World().NewBuf(blockBytes)
	bPanel := p.World().NewBuf(blockBytes)

	for k := 0; k < dim; k++ {
		// Row broadcast: owner of column k ships its A block.
		if myCol == k {
			packMat(aPanel, aBlock)
		}
		if err := coll.Bcast(rowComm, aPanel, k); err != nil {
			return fmt.Errorf("summa: row bcast k=%d: %w", k, err)
		}
		// Column broadcast: owner of row k ships its B block.
		if myRow == k {
			packMat(bPanel, bBlock)
		}
		if err := coll.Bcast(colComm, bPanel, k); err != nil {
			return fmt.Errorf("summa: col bcast k=%d: %w", k, err)
		}
		if err := localUpdate(p, cfg, cBlock, aPanel, bPanel, b); err != nil {
			return err
		}
	}
	return nil
}

// runHybrid is Hy_SUMMA: hybrid broadcasts into one shared panel per
// node on each communicator. Two alternating Bcasters per communicator
// (double buffering) make the repeated epochs safe without extra read
// fences: the Release synchronization of broadcast k+1 orders every
// on-node read of panel k before the k+2 root overwrites that buffer.
func runHybrid(p *mpi.Proc, cfg Config, rowComm, colComm *mpi.Comm,
	aBlock, bBlock, cBlock *la.Mat, blockBytes, myRow, myCol int) error {

	dim, b := cfg.GridDim, cfg.BlockDim
	rowCtx, err := hybrid.New(rowComm, hybrid.WithSync(cfg.Sync))
	if err != nil {
		return err
	}
	colCtx, err := hybrid.New(colComm, hybrid.WithSync(cfg.Sync))
	if err != nil {
		return err
	}
	var rowB, colB [2]*hybrid.Bcaster
	for i := 0; i < 2; i++ {
		if rowB[i], err = rowCtx.NewBcaster(blockBytes); err != nil {
			return err
		}
		if colB[i], err = colCtx.NewBcaster(blockBytes); err != nil {
			return err
		}
	}

	for k := 0; k < dim; k++ {
		rb, cb := rowB[k%2], colB[k%2]
		if myCol == k {
			packMat(rb.Buffer(), aBlock)
		}
		if err := rb.Bcast(k); err != nil {
			return fmt.Errorf("summa: hybrid row bcast k=%d: %w", k, err)
		}
		if myRow == k {
			packMat(cb.Buffer(), bBlock)
		}
		if err := cb.Bcast(k); err != nil {
			return fmt.Errorf("summa: hybrid col bcast k=%d: %w", k, err)
		}
		// Ranks compute straight out of the node-shared panels —
		// the "parallel computation without any data movement in
		// between" of Sect. 5.2.1.
		if err := localUpdate(p, cfg, cBlock, rb.Buffer(), cb.Buffer(), b); err != nil {
			return err
		}
		// With the barrier flavor, the Release of broadcast k+1 is
		// a full node rendezvous, which (with double buffering)
		// already orders this iteration's reads before the k+2
		// overwrite. The pairwise flavors release children
		// independently, so the epoch fence must be explicit.
		if cfg.Sync != hybrid.SyncBarrier {
			if err := rb.ReadFence(); err != nil {
				return err
			}
			if err := cb.ReadFence(); err != nil {
				return err
			}
		}
	}
	return nil
}

// localUpdate performs (or models) C += Apanel x Bpanel.
func localUpdate(p *mpi.Proc, cfg Config, cBlock *la.Mat, aPanel, bPanel mpi.Buf, b int) error {
	p.Compute(la.GemmFlops(b, b, b))
	if !cfg.Verify {
		return nil
	}
	a, bm := panelMat(aPanel, b), panelMat(bPanel, b)
	return la.Gemm(cBlock, &a, &bm)
}

// panelMat is the b x b matrix a travelling panel holds, read in place:
// a hybrid rank multiplies out of its node's one shared copy. Only a
// panel with no aligned float64 view is copied out.
func panelMat(panel mpi.Buf, b int) la.Mat {
	data := panel.Float64sView()
	if data == nil {
		data = panel.Float64s()
	}
	return la.Mat{Rows: b, Cols: b, Data: data}
}

// localBlocks builds deterministic per-rank A and B blocks so that the
// verification product is reproducible.
func localBlocks(rank, b int) (*la.Mat, *la.Mat) {
	a, bm := la.NewMat(b, b), la.NewMat(b, b)
	fillBlocks(a, bm, rank, 0, 0, b)
	return a, bm
}

// fillBlocks writes rank's A and B blocks into a and bm with their top
// left corner at (row0, col0): smooth, rank-dependent values, kept small
// so the products stay well-conditioned,
//
//	a[i][j] = sin(rank*31 + 7i + j) / 2,  b[i][j] = cos(rank*17 + 3i + 5j) / 2.
//
// Both arguments are integers in a window of 8b-7 values above the
// rank's offset, so one table of each function over its window gives
// the b² elements from 8b-7 evaluations each.
func fillBlocks(a, bm *la.Mat, rank, row0, col0, b int) {
	w := 8*b - 7
	tab := make([]float64, 2*w)
	sin, cos := tab[:w], tab[w:]
	for t := range sin {
		sin[t] = math.Sin(float64(rank*31+t)) * 0.5
		cos[t] = math.Cos(float64(rank*17+t)) * 0.5
	}
	for i := 0; i < b; i++ {
		arow := a.Row(row0 + i)[col0 : col0+b]
		brow := bm.Row(row0 + i)[col0 : col0+b]
		for j := range arow {
			arow[j] = sin[7*i+j]
			brow[j] = cos[3*i+5*j]
		}
	}
}

// gatherC gathers every rank's C block at rank 0, in rank order, and
// returns the gathered buffer there.
func gatherC(world *mpi.Comm, cBlock *la.Mat, blockBytes int) (mpi.Buf, error) {
	recv := mpi.Buf{}
	if world.Rank() == 0 {
		recv = mpi.Bytes(make([]byte, blockBytes*world.Size()))
	}
	send := mpi.Bytes(make([]byte, blockBytes))
	packMat(send, cBlock)
	if err := gather(world, send, recv, blockBytes, 0); err != nil {
		return mpi.Buf{}, err
	}
	return recv, nil
}

// reference is the product A x B of the assembled operands, n =
// GridDim*BlockDim, computed by host goroutines while the simulated
// ranks run.
type reference struct {
	cfg  Config
	c    *la.Mat
	done sync.WaitGroup // every goroutine has finished its bands
}

// startReference starts min(GOMAXPROCS, GridDim) goroutines. Each one
// fills its block rows of A and B with fillBlocks, waits until every
// block row is filled, then computes its block rows of C with la.Gemm
// on row-band views; goroutine g takes block rows g, g+G, g+2G, ...
func startReference(cfg Config) *reference {
	dim, b := cfg.GridDim, cfg.BlockDim
	n := dim * b
	a, bm := la.NewMat(n, n), la.NewMat(n, n)
	ref := &reference{cfg: cfg, c: la.NewMat(n, n)}
	band := func(m *la.Mat, row int) *la.Mat {
		return &la.Mat{Rows: b, Cols: n, Data: m.Data[row*b*n : (row+1)*b*n]}
	}
	g := min(runtime.GOMAXPROCS(0), dim)
	var filled sync.WaitGroup
	filled.Add(g)
	ref.done.Add(g)
	for w := range g {
		go func() {
			defer ref.done.Done()
			for row := w; row < dim; row += g {
				for col := range dim {
					fillBlocks(a, bm, row*dim+col, row*b, col*b, b)
				}
			}
			filled.Done()
			filled.Wait()
			for row := w; row < dim; row += g {
				if err := la.Gemm(band(ref.c, row), band(a, row), bm); err != nil {
					panic(err) // b x n times n x n by construction
				}
			}
		}()
	}
	return ref
}

// check compares the gathered C, rank r's block at r*b*b, with the
// reference bit for bit, in place. Both sum the same products in the
// same ascending-k order (la.Gemm's contract), so any difference is an
// error.
func (ref *reference) check(c mpi.Buf) error {
	dim, b := ref.cfg.GridDim, ref.cfg.BlockDim
	for r := range dim * dim {
		row0, col0 := r/dim*b, r%dim*b
		for i := range b {
			want := ref.c.Row(row0 + i)[col0 : col0+b]
			for j, x := range want {
				if got := c.Float64At((r*b+i)*b + j); got != x {
					return fmt.Errorf("summa: verification failed at C[%d][%d]: got %g, want %g",
						row0+i, col0+j, got, x)
				}
			}
		}
	}
	return nil
}

func packMat(dst mpi.Buf, m *la.Mat) {
	if m == nil || !dst.Real() {
		return
	}
	dst.PutFloat64s(0, m.Data)
}
