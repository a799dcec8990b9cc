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
// A verified run allocates only the buffers the algorithm owns: a rank
// writes its A and B blocks straight into the panel it broadcasts, and
// accumulates C in the block the final gather sends. It checks the
// gathered C bit for bit against the reference product A x B, which
// host goroutines compute in block-row bands while the simulated ranks
// run.
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
	var send, recv mpi.Buf
	var cBlock *la.Mat
	if cfg.Verify {
		send, recv, cBlock = gatherBlocks(p, world, b)
	}

	if cfg.Hybrid {
		err = runHybrid(p, cfg, rowComm, colComm, cBlock, blockBytes, myRow, myCol)
	} else {
		err = runPure(p, cfg, rowComm, colComm, cBlock, blockBytes, myRow, myCol)
	}
	if err != nil || !cfg.Verify {
		return mpi.Buf{}, err
	}
	return gatherC(world, send, recv, cBlock)
}

// runPure is Ori_SUMMA: plain MPI_Bcast on row and column communicators.
func runPure(p *mpi.Proc, cfg Config, rowComm, colComm *mpi.Comm,
	cBlock *la.Mat, blockBytes, myRow, myCol int) error {

	dim, b := cfg.GridDim, cfg.BlockDim
	aPanel := p.World().NewBuf(blockBytes)
	bPanel := p.World().NewBuf(blockBytes)

	for k := 0; k < dim; k++ {
		// Row broadcast: owner of column k ships its A block.
		if myCol == k && cfg.Verify {
			fillPanel(aPanel, fillA, p.Rank(), b)
		}
		if err := coll.Bcast(rowComm, aPanel, k); err != nil {
			return fmt.Errorf("summa: row bcast k=%d: %w", k, err)
		}
		// Column broadcast: owner of row k ships its B block.
		if myRow == k && cfg.Verify {
			fillPanel(bPanel, fillB, p.Rank(), b)
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
	cBlock *la.Mat, blockBytes, myRow, myCol int) error {

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
		// The owner writes its block straight into the node's shared
		// panel.
		if myCol == k && cfg.Verify {
			fillPanel(rb.Buffer(), fillA, p.Rank(), b)
		}
		if err := rb.Bcast(k); err != nil {
			return fmt.Errorf("summa: hybrid row bcast k=%d: %w", k, err)
		}
		if myRow == k && cfg.Verify {
			fillPanel(cb.Buffer(), fillB, p.Rank(), b)
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

// fillPanel writes rank's b x b block of one operand into panel through
// its float64 view. A panel with no view (a misaligned sub-slice, or any
// panel on a big-endian host) gets the block built aside and stored
// through the byte codec.
func fillPanel(panel mpi.Buf, fill func(m *la.Mat, rank, row0, col0, b int), rank, b int) {
	m := la.Mat{Rows: b, Cols: b, Data: panel.Float64sView()}
	if m.Data == nil {
		m.Data = make([]float64, b*b)
		defer panel.PutFloat64s(0, m.Data)
	}
	fill(&m, rank, 0, 0, b)
}

// fillA and fillB write rank's A and B blocks into m with their top left
// corner at (row0, col0): smooth, rank-dependent values, kept small so
// the products stay well-conditioned,
//
//	a[i][j] = sin(rank*31 + 7i + j) / 2,  b[i][j] = cos(rank*17 + 3i + 5j) / 2.
//
// Each argument is an integer in a window of 8b-7 values above the
// rank's offset, so one table of the function over its window gives the
// b² elements from 8b-7 evaluations.
func fillA(m *la.Mat, rank, row0, col0, b int) {
	sin := make([]float64, 8*b-7)
	for t := range sin {
		sin[t] = math.Sin(float64(rank*31+t)) * 0.5
	}
	for i := 0; i < b; i++ {
		row := m.Row(row0 + i)[col0 : col0+b]
		for j := range row {
			row[j] = sin[7*i+j]
		}
	}
}

// fillB is fillA's counterpart for B.
func fillB(m *la.Mat, rank, row0, col0, b int) {
	cos := make([]float64, 8*b-7)
	for t := range cos {
		cos[t] = math.Cos(float64(rank*17+t)) * 0.5
	}
	for i := 0; i < b; i++ {
		row := m.Row(row0 + i)[col0 : col0+b]
		for j := range row {
			row[j] = cos[3*i+5*j]
		}
	}
}

// gatherBlocks allocates the buffers of the final gather and the C block
// that accumulates in the send block: the send block itself where it has
// a float64 view, a matrix stored into it by gatherC otherwise. Rank 0,
// the root, sends block 0 of its receive buffer, as MPI_IN_PLACE would.
func gatherBlocks(p *mpi.Proc, world *mpi.Comm, b int) (send, recv mpi.Buf, cBlock *la.Mat) {
	blockBytes := 8 * b * b
	if world.Rank() == 0 {
		recv = p.World().NewBuf(blockBytes * world.Size())
		send = recv.Slice(0, blockBytes)
	} else {
		send = p.World().NewBuf(blockBytes)
	}
	cBlock = &la.Mat{Rows: b, Cols: b, Data: send.Float64sView()}
	if cBlock.Data == nil {
		cBlock.Data = make([]float64, b*b)
	}
	return send, recv, cBlock
}

// gatherC gathers every rank's C block at rank 0, in rank order, and
// returns the gathered buffer there.
func gatherC(world *mpi.Comm, send, recv mpi.Buf, cBlock *la.Mat) (mpi.Buf, error) {
	if send.Float64sView() == nil {
		send.PutFloat64s(0, cBlock.Data)
	}
	if err := gather(world, send, recv, send.Len(), 0); err != nil {
		return mpi.Buf{}, err
	}
	return recv, nil
}

// reference is the product A x B of the assembled operands, n =
// GridDim*BlockDim, computed by host goroutines while the simulated
// ranks run. It holds B and C in full and A one block-row band per
// goroutine.
type reference struct {
	cfg  Config
	c    *la.Mat
	done sync.WaitGroup // every goroutine has finished its bands
}

// startReference starts min(GOMAXPROCS, GridDim) goroutines. Each one
// fills its block rows of B with fillB and waits until every block row
// is filled. Then, for each of its block rows, it fills its b x n band
// of A with fillA and computes that block row of C with la.Gemm on a
// row-band view; goroutine g takes block rows g, g+G, g+2G, ...
func startReference(cfg Config) *reference {
	dim, b := cfg.GridDim, cfg.BlockDim
	n := dim * b
	bm := la.NewMat(n, n)
	ref := &reference{cfg: cfg, c: la.NewMat(n, n)}
	g := min(runtime.GOMAXPROCS(0), dim)
	var filled sync.WaitGroup
	filled.Add(g)
	ref.done.Add(g)
	for w := range g {
		go func() {
			defer ref.done.Done()
			for row := w; row < dim; row += g {
				for col := range dim {
					fillB(bm, row*dim+col, row*b, col*b, b)
				}
			}
			filled.Done()
			filled.Wait()
			a := la.NewMat(b, n)
			for row := w; row < dim; row += g {
				for col := range dim {
					fillA(a, row*dim+col, 0, col*b, b)
				}
				c := &la.Mat{Rows: b, Cols: n, Data: ref.c.Data[row*b*n : (row+1)*b*n]}
				if err := la.Gemm(c, a, bm); err != nil {
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
