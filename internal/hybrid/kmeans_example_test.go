package hybrid_test

import (
	"fmt"
	"math"

	"repro/internal/coll"
	"repro/internal/hybrid"
	"repro/internal/mpi"
	"repro/internal/sim"
)

const (
	clusters = 4
	dims     = 2   // point dimensionality
	perRank  = 500 // points per rank
	rounds   = 6
	stateLen = clusters * (dims + 1) // per cluster: coordinate sums + count
)

// Distributed k-means on the hybrid collectives: each round every rank
// assigns its points to the nearest centroid, and one Allreducer sums
// the per-cluster statistics into a single shared copy per node. The
// pure-MPI flavor does the same with coll.Allreduce. The two reduce in
// different orders (node-local first vs recursive doubling), so they
// agree up to floating-point reassociation.
func ExampleCtx_NewAllreducer() {
	topo := sim.MustUniform(3, 8)
	var cents [2][]float64
	var times [2]sim.Time
	for i, hy := range []bool{false, true} {
		c, t, err := kmeans(topo, hy)
		if err != nil {
			panic(err)
		}
		cents[i], times[i] = c, t
	}
	agree := true
	for i, v := range cents[0] {
		agree = agree && math.Abs(v-cents[1][i]) <= 1e-9*(1+math.Abs(v))
	}
	fmt.Println("flavors agree:", agree)
	for c := 0; c < clusters; c++ {
		fmt.Printf("cluster %d: (%.3f, %.3f)\n", c, cents[1][c*dims], cents[1][c*dims+1])
	}
	fmt.Println("pure MPI:", times[0])
	fmt.Println("hybrid MPI+MPI:", times[1])
	// Output:
	// flavors agree: true
	// cluster 0: (-0.005, 0.001)
	// cluster 1: (8.003, 1.001)
	// cluster 2: (2.004, 9.000)
	// cluster 3: (-6.003, 5.000)
	// pure MPI: 54.6us
	// hybrid MPI+MPI: 48.0us
}

// kmeans runs Lloyd's iterations on every rank and returns rank 0's
// final centroids and the virtual makespan.
func kmeans(topo *sim.Topology, hy bool) ([]float64, sim.Time, error) {
	w, err := mpi.NewWorld(sim.HazelHenCray(), topo, mpi.WithRealData())
	if err != nil {
		return nil, 0, err
	}
	out := make([][]float64, topo.Size())
	err = w.Run(func(p *mpi.Proc) error {
		world := p.CommWorld()
		points := myPoints(p.Rank())
		cents := []float64{-1, -1, 6, 0, 1, 7, -4, 4}

		var red *hybrid.Allreducer
		if hy {
			ctx, err := hybrid.New(world)
			if err != nil {
				return err
			}
			if red, err = ctx.NewAllreducer(stateLen, mpi.Float64); err != nil {
				return err
			}
		}
		for r := 0; r < rounds; r++ {
			stats := assign(points, cents)
			p.Compute(float64(perRank * clusters * dims * 3))
			if hy {
				mpi.CopyData(red.Mine(), stats)
				if err := red.Allreduce(mpi.OpSum); err != nil {
					return err
				}
				cents = recenter(red.Result(), cents)
				// The shared result is rewritten next round.
				if err := red.ReadFence(); err != nil {
					return err
				}
				continue
			}
			global := mpi.Bytes(make([]byte, stats.Len()))
			if err := coll.Allreduce(world, stats, global, stateLen, mpi.Float64, mpi.OpSum); err != nil {
				return err
			}
			cents = recenter(global, cents)
		}
		out[p.Rank()] = cents
		return nil
	})
	return out[0], w.MaxClock(), err
}

// myPoints scatters this rank's points deterministically around four
// hidden centers.
func myPoints(rank int) [][dims]float64 {
	centers := [][dims]float64{{0, 0}, {8, 1}, {2, 9}, {-6, 5}}
	pts := make([][dims]float64, perRank)
	for i := range pts {
		c := centers[(rank+i)%clusters]
		f1 := math.Sin(float64(rank*7919+i)*0.7) * 1.5
		f2 := math.Cos(float64(rank*104729+i)*1.1) * 1.5
		pts[i] = [dims]float64{c[0] + f1, c[1] + f2}
	}
	return pts
}

// assign buckets points to the nearest centroid and accumulates
// per-cluster coordinate sums and counts.
func assign(pts [][dims]float64, cents []float64) mpi.Buf {
	stats := mpi.Bytes(make([]byte, 8*stateLen))
	for _, pt := range pts {
		best, bestD := 0, math.Inf(1)
		for c := 0; c < clusters; c++ {
			d := 0.0
			for j := 0; j < dims; j++ {
				diff := pt[j] - cents[c*dims+j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		base := best * (dims + 1)
		for j := 0; j < dims; j++ {
			stats.PutFloat64(base+j, stats.Float64At(base+j)+pt[j])
		}
		stats.PutFloat64(base+dims, stats.Float64At(base+dims)+1)
	}
	return stats
}

// recenter turns global sums and counts into new centroids, keeping the
// old centroid of an empty cluster.
func recenter(global mpi.Buf, old []float64) []float64 {
	cents := append([]float64(nil), old...)
	for c := 0; c < clusters; c++ {
		base := c * (dims + 1)
		if count := global.Float64At(base + dims); count != 0 {
			for j := 0; j < dims; j++ {
				cents[c*dims+j] = global.Float64At(base+j) / count
			}
		}
	}
	return cents
}
