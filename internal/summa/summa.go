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
package summa

import (
	"fmt"
	"math"

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
	// Verify runs with real data and checks C = A x B against a
	// serial product on rank 0 (small configurations only).
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

// Run executes SUMMA on the world and returns the virtual makespan.
func Run(w *mpi.World, cfg Config) (Result, error) {
	if err := cfg.validate(w.Size()); err != nil {
		return Result{}, err
	}
	if cfg.Verify && !w.RealData() {
		return Result{}, fmt.Errorf("summa: Verify needs a world with real data (mpi.WithRealData)")
	}
	w.ResetClocks()
	verified := make([]bool, w.Size())
	err := w.Run(func(p *mpi.Proc) error {
		ok, err := runRank(p, cfg)
		verified[p.Rank()] = ok
		return err
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Makespan: w.MaxClock(), Verified: cfg.Verify && verified[0]}, nil
}

// runRank is the per-rank SUMMA body; it returns whether verification
// (rank 0 only) succeeded.
func runRank(p *mpi.Proc, cfg Config) (bool, error) {
	dim, b := cfg.GridDim, cfg.BlockDim
	world := p.CommWorld()
	myRow := world.Rank() / dim
	myCol := world.Rank() % dim

	rowComm, err := world.Split(myRow, myCol)
	if err != nil {
		return false, err
	}
	colComm, err := world.Split(myCol+dim, myRow) // offset colors to taste
	if err != nil {
		return false, err
	}

	blockBytes := 8 * b * b
	var aBlock, bBlock, cBlock *la.Mat
	if cfg.Verify {
		aBlock, bBlock = localBlocks(p.Rank(), b)
		cBlock = la.NewMat(b, b)
	}

	if cfg.Hybrid {
		return runHybrid(p, cfg, rowComm, colComm, aBlock, bBlock, cBlock, blockBytes, myRow, myCol)
	}
	return runPure(p, cfg, rowComm, colComm, aBlock, bBlock, cBlock, blockBytes, myRow, myCol)
}

// runPure is Ori_SUMMA: plain MPI_Bcast on row and column communicators.
func runPure(p *mpi.Proc, cfg Config, rowComm, colComm *mpi.Comm,
	aBlock, bBlock, cBlock *la.Mat, blockBytes, myRow, myCol int) (bool, error) {

	dim, b := cfg.GridDim, cfg.BlockDim
	aPanel := p.World().NewBuf(blockBytes)
	bPanel := p.World().NewBuf(blockBytes)

	for k := 0; k < dim; k++ {
		// Row broadcast: owner of column k ships its A block.
		if myCol == k {
			packMat(aPanel, aBlock)
		}
		if err := coll.Bcast(rowComm, aPanel, k); err != nil {
			return false, fmt.Errorf("summa: row bcast k=%d: %w", k, err)
		}
		// Column broadcast: owner of row k ships its B block.
		if myRow == k {
			packMat(bPanel, bBlock)
		}
		if err := coll.Bcast(colComm, bPanel, k); err != nil {
			return false, fmt.Errorf("summa: col bcast k=%d: %w", k, err)
		}
		if err := localUpdate(p, cfg, cBlock, aPanel, bPanel, b); err != nil {
			return false, err
		}
	}
	return verify(p, cfg, cBlock)
}

// runHybrid is Hy_SUMMA: hybrid broadcasts into one shared panel per
// node on each communicator. Two alternating Bcasters per communicator
// (double buffering) make the repeated epochs safe without extra read
// fences: the Release synchronization of broadcast k+1 orders every
// on-node read of panel k before the k+2 root overwrites that buffer.
func runHybrid(p *mpi.Proc, cfg Config, rowComm, colComm *mpi.Comm,
	aBlock, bBlock, cBlock *la.Mat, blockBytes, myRow, myCol int) (bool, error) {

	dim, b := cfg.GridDim, cfg.BlockDim
	rowCtx, err := hybrid.New(rowComm, hybrid.WithSync(cfg.Sync))
	if err != nil {
		return false, err
	}
	colCtx, err := hybrid.New(colComm, hybrid.WithSync(cfg.Sync))
	if err != nil {
		return false, err
	}
	var rowB, colB [2]*hybrid.Bcaster
	for i := 0; i < 2; i++ {
		if rowB[i], err = rowCtx.NewBcaster(blockBytes); err != nil {
			return false, err
		}
		if colB[i], err = colCtx.NewBcaster(blockBytes); err != nil {
			return false, err
		}
	}

	for k := 0; k < dim; k++ {
		rb, cb := rowB[k%2], colB[k%2]
		if myCol == k {
			packMat(rb.Buffer(), aBlock)
		}
		if err := rb.Bcast(k); err != nil {
			return false, fmt.Errorf("summa: hybrid row bcast k=%d: %w", k, err)
		}
		if myRow == k {
			packMat(cb.Buffer(), bBlock)
		}
		if err := cb.Bcast(k); err != nil {
			return false, fmt.Errorf("summa: hybrid col bcast k=%d: %w", k, err)
		}
		// Ranks compute straight out of the node-shared panels —
		// the "parallel computation without any data movement in
		// between" of Sect. 5.2.1.
		if err := localUpdate(p, cfg, cBlock, rb.Buffer(), cb.Buffer(), b); err != nil {
			return false, err
		}
		// With the barrier flavor, the Release of broadcast k+1 is
		// a full node rendezvous, which (with double buffering)
		// already orders this iteration's reads before the k+2
		// overwrite. The pairwise flavors release children
		// independently, so the epoch fence must be explicit.
		if cfg.Sync != hybrid.SyncBarrier {
			if err := rb.ReadFence(); err != nil {
				return false, err
			}
			if err := cb.ReadFence(); err != nil {
				return false, err
			}
		}
	}
	return verify(p, cfg, cBlock)
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

// verify gathers C at rank 0 and compares against a serial product.
func verify(p *mpi.Proc, cfg Config, cBlock *la.Mat) (bool, error) {
	if !cfg.Verify {
		return false, nil
	}
	dim, b := cfg.GridDim, cfg.BlockDim
	world := p.CommWorld()
	blockBytes := 8 * b * b
	recv := mpi.Buf{}
	if world.Rank() == 0 {
		recv = mpi.Bytes(make([]byte, blockBytes*world.Size()))
	}
	send := mpi.Bytes(make([]byte, blockBytes))
	packMat(send, cBlock)
	if err := coll.Gather(world, send, recv, blockBytes, 0); err != nil {
		return false, err
	}
	if world.Rank() != 0 {
		return true, nil
	}

	// Assemble the distributed operands and the gathered C, then
	// check against a serial multiplication.
	n := dim * b
	A, B := la.NewMat(n, n), la.NewMat(n, n)
	C := la.NewMat(n, n)
	for r := 0; r < world.Size(); r++ {
		row0, col0 := r/dim*b, r%dim*b
		fillBlocks(A, B, r, row0, col0, b)
		cb := recv.Slice(r*blockBytes, blockBytes)
		for i := 0; i < b; i++ {
			cb.CopyFloat64s(C.Row(row0 + i)[col0:col0+b], i*b)
		}
	}
	want := la.NewMat(n, n)
	if err := la.Gemm(want, A, B); err != nil {
		return false, err
	}
	for i := range want.Data {
		if math.Abs(want.Data[i]-C.Data[i]) > 1e-9*(1+math.Abs(want.Data[i])) {
			return false, fmt.Errorf("summa: verification failed at element %d: got %g, want %g",
				i, C.Data[i], want.Data[i])
		}
	}
	return true, nil
}

func packMat(dst mpi.Buf, m *la.Mat) {
	if m == nil || !dst.Real() {
		return
	}
	dst.PutFloat64s(0, m.Data)
}
