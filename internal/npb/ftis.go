package npb

import (
	"fmt"
	"sort"

	"repro/internal/coll"
	"repro/internal/hybrid"
	"repro/internal/mpi"
)

// runFT is the spectral-method skeleton: a P x (P*N) matrix of complex
// values (16 bytes each) distributed by block rows is repeatedly
// "transformed" (modeled local FFT compute) and transposed with an
// all-to-all, the dominant pattern of NPB FT.
//
// Verification (real mode): after one transpose, block (i, j) must hold
// what rank j wrote for destination i.
func runFT(p *mpi.Proc, cfg Config) (bool, error) {
	world := p.CommWorld()
	nRanks := world.Size()
	blockBytes := 16 * cfg.N // complex128 per (src,dst) pair

	var hyA *hybrid.Alltoaller
	var hctx *hybrid.Ctx
	var send, recv mpi.Buf
	var err error
	if cfg.Hybrid {
		if hctx, err = hybrid.New(world); err != nil {
			return false, err
		}
		if hyA, err = hctx.NewAlltoaller(blockBytes); err != nil {
			return false, err
		}
		send, recv = hyA.MineSend(), hyA.MineRecv()
	} else {
		send = p.World().NewBuf(blockBytes * nRanks)
		recv = p.World().NewBuf(blockBytes * nRanks)
	}

	ok := true
	for it := 0; it < cfg.Iters; it++ {
		// "FFT" the local slab: 5 N log N flops per butterfly pass.
		logN := 1
		for 1<<logN < cfg.N*nRanks {
			logN++
		}
		p.Compute(5 * float64(cfg.N*nRanks) * float64(logN) / float64(nRanks))

		// Tag the first element of every destination block.
		if cfg.Verify {
			for dstRank := 0; dstRank < nRanks; dstRank++ {
				send.Slice(dstRank*blockBytes, blockBytes).
					PutFloat64(0, float64(it*1_000_000+world.Rank()*1000+dstRank))
			}
		}

		if cfg.Hybrid {
			if err := hyA.Alltoall(); err != nil {
				return false, err
			}
		} else {
			if err := coll.Alltoall(world, send, recv, blockBytes); err != nil {
				return false, err
			}
		}

		if cfg.Verify {
			for srcRank := 0; srcRank < nRanks; srcRank++ {
				want := float64(it*1_000_000 + srcRank*1000 + world.Rank())
				got := recv.Slice(srcRank*blockBytes, blockBytes).Float64At(0)
				if got != want {
					return false, fmt.Errorf("npb: FT transpose wrong at iter %d src %d: %g != %g",
						it, srcRank, got, want)
				}
			}
		}
		// Epoch fence for the shared segments before rewriting.
		if cfg.Hybrid {
			if err := hyA.ReadFence(); err != nil {
				return false, err
			}
		}
	}
	return ok, nil
}

// runIS is the integer-sort skeleton: each rank holds N keys, buckets
// them by destination rank (keys are uniform over rank-aligned ranges),
// exchanges buckets with an all-to-all, sorts locally, and allgathers
// the per-rank extrema to check global order — NPB IS's communication
// mix.
func runIS(p *mpi.Proc, cfg Config) (bool, error) {
	world := p.CommWorld()
	nRanks := world.Size()
	rank := world.Rank()
	n := cfg.N

	// Bucket capacity: keys are near-uniform; leave a fat margin
	// (mean + ~10 sigma) so statistical excursions cannot overflow.
	capPer := 3*(n/nRanks) + 16
	blockBytes := 8 * (capPer + 1) // slot 0 holds the bucket length

	var hyA *hybrid.Alltoaller
	var hyG *hybrid.Allgatherer
	var hctx *hybrid.Ctx
	var send, recv mpi.Buf
	var err error
	if cfg.Hybrid {
		if hctx, err = hybrid.New(world); err != nil {
			return false, err
		}
		if hyA, err = hctx.NewAlltoaller(blockBytes); err != nil {
			return false, err
		}
		if hyG, err = hctx.NewAllgatherer(16); err != nil {
			return false, err
		}
		send, recv = hyA.MineSend(), hyA.MineRecv()
	} else {
		send = p.World().NewBuf(blockBytes * nRanks)
		recv = p.World().NewBuf(blockBytes * nRanks)
	}

	ok := true
	for it := 0; it < cfg.Iters; it++ {
		// Generate keys in [0, nRanks*1000) and bucket them.
		keyRange := 1000
		counts := make([]int, nRanks)
		if cfg.Verify || send.Real() {
			// Reset the count slots (buckets may shrink between
			// iterations).
			for dst := 0; dst < nRanks; dst++ {
				send.Slice(dst*blockBytes, blockBytes).PutFloat64(0, 0)
			}
			rng := p.RNG(int64(1000 + it))
			for i := 0; i < n; i++ {
				key := rng.Intn(nRanks * keyRange)
				dst := key / keyRange
				if counts[dst] >= capPer {
					return false, fmt.Errorf("npb: IS bucket %d overflow", dst)
				}
				blk := send.Slice(dst*blockBytes, blockBytes)
				counts[dst]++
				blk.PutFloat64(0, float64(counts[dst]))
				blk.PutFloat64(counts[dst], float64(key))
			}
		}
		p.Compute(float64(2 * n)) // bucketing passes

		if cfg.Hybrid {
			if err := hyA.Alltoall(); err != nil {
				return false, err
			}
		} else {
			if err := coll.Alltoall(world, send, recv, blockBytes); err != nil {
				return false, err
			}
		}

		// Collect and sort my keys.
		var mine []float64
		if cfg.Verify {
			for src := 0; src < nRanks; src++ {
				blk := recv.Slice(src*blockBytes, blockBytes)
				cnt := int(blk.Float64At(0))
				for i := 1; i <= cnt; i++ {
					mine = append(mine, blk.Float64At(i))
				}
			}
			sort.Float64s(mine)
		}
		p.Compute(float64(n) * 10) // sort cost ~ n log n

		// Allgather per-rank extrema and check global order.
		lo, hi := float64(rank*keyRange), float64(rank*keyRange)
		if len(mine) > 0 {
			lo, hi = mine[0], mine[len(mine)-1]
		}
		var extrema mpi.Buf
		if cfg.Hybrid {
			hyG.Mine().PutFloat64(0, lo)
			hyG.Mine().PutFloat64(1, hi)
			if err := hyG.Allgather(); err != nil {
				return false, err
			}
			extrema = hyG.Buffer()
		} else {
			sendE := mpi.FromFloat64s([]float64{lo, hi})
			extrema = p.World().NewBuf(16 * nRanks)
			h, err := coll.NewHier(world)
			if err != nil {
				return false, err
			}
			if err := h.Allgather(sendE, extrema, 16); err != nil {
				return false, err
			}
		}
		if cfg.Verify {
			for r := 1; r < nRanks; r++ {
				prevHi := extrema.Float64At((r-1)*2 + 1)
				curLo := extrema.Float64At(r * 2)
				if prevHi > curLo {
					return false, fmt.Errorf("npb: IS order violated between ranks %d and %d: %g > %g",
						r-1, r, prevHi, curLo)
				}
			}
			// My keys must be inside my range.
			if len(mine) > 0 && (mine[0] < float64(rank*keyRange) || mine[len(mine)-1] >= float64((rank+1)*keyRange)) {
				return false, fmt.Errorf("npb: IS rank %d keys out of range", rank)
			}
		}
		if cfg.Hybrid {
			if err := hyA.ReadFence(); err != nil {
				return false, err
			}
		}
	}
	return ok, nil
}
