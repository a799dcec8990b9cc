package bench

import (
	"repro/internal/bpmf"
	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/summa"
)

// WallCase is one figure-scale workload whose virtual makespan the
// golden determinism tests pin to the picosecond. Run executes one
// operation and returns that makespan. (Host-time measurement of the
// same scale points lives in benchmark/, outside this package.)
type WallCase struct {
	Name string
	Run  func() (sim.Time, error)
}

// WallCases returns the standard figure-scale workload set: the paper's
// Fig. 7 (one full node), Fig. 9 (64 nodes x 24 ranks — 1536 rank
// goroutines), and Fig. 11 (SUMMA) scale points, plus a small-message
// ping-pong that isolates the p2p matcher fast path.
func WallCases() []WallCase {
	cray := sim.HazelHenCray()
	return []WallCase{
		{
			Name: "p2p/pingpong_2x1_8B",
			Run: func() (sim.Time, error) {
				return PingPong(cray, false, 8, 64)
			},
		},
		{
			Name: "fig7/allgather_1x24_e512",
			Run: func() (sim.Time, error) {
				hy, err := HyAllgatherLatency(cray, []int{CoresPerNode}, 8*512, MicroOpts{})
				if err != nil {
					return 0, err
				}
				pure, err := PureAllgatherLatency(cray, []int{CoresPerNode}, 8*512, MicroOpts{})
				if err != nil {
					return 0, err
				}
				return hy + pure, nil
			},
		},
		{
			Name: "fig9/allgather_64x24_e512",
			Run: func() (sim.Time, error) {
				shape := make([]int, 64)
				for i := range shape {
					shape[i] = 24
				}
				hy, err := HyAllgatherLatency(cray, shape, 8*512, MicroOpts{Iters: 2})
				if err != nil {
					return 0, err
				}
				pure, err := PureAllgatherLatency(cray, shape, 8*512, MicroOpts{Iters: 2})
				if err != nil {
					return 0, err
				}
				return hy + pure, nil
			},
		},
		{
			Name: "stencil/halo4d_256_e64",
			Run: func() (sim.Time, error) {
				// A 4-dim periodic 4^4 grid (256 ranks, 16 nodes),
				// reordered onto node bricks, exchanging 64-double
				// halos — the figure-scale anchor of the stencil path.
				topo, err := sim.Uniform(16, 16)
				if err != nil {
					return 0, err
				}
				w, err := mpi.NewWorld(cray, topo)
				if err != nil {
					return 0, err
				}
				defer w.Close()
				dims := []int{4, 4, 4, 4}
				periods := []bool{true, true, true, true}
				err = w.Run(func(p *mpi.Proc) error {
					cart, err := p.CommWorld().CartCreate(dims, periods, true)
					if err != nil {
						return err
					}
					in, _, _ := cart.Neighborhood()
					send := mpi.Sized(512 * len(in))
					recv := mpi.Sized(512 * len(in))
					for i := 0; i < 2; i++ {
						if err := coll.NeighborAlltoall(cart, send, recv, 512); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return 0, err
				}
				return w.MaxClock(), nil
			},
		},
		{
			Name: "fig11/summa_c64_b64",
			Run: func() (sim.Time, error) {
				var total sim.Time
				for _, hy := range []bool{false, true} {
					topo, err := sim.NewTopology(ShapeFor(64))
					if err != nil {
						return 0, err
					}
					w, err := mpi.NewWorld(cray, topo)
					if err != nil {
						return 0, err
					}
					res, err := summa.Run(w, summa.Config{GridDim: 8, BlockDim: 64, Hybrid: hy})
					w.Close()
					if err != nil {
						return 0, err
					}
					total += res.Makespan
				}
				return total, nil
			},
		},
		{
			Name: "fig12/bpmf_c120",
			Run: func() (sim.Time, error) {
				topo, err := sim.NewTopology(ShapeFor(120))
				if err != nil {
					return 0, err
				}
				w, err := mpi.NewWorld(cray, topo)
				if err != nil {
					return 0, err
				}
				cfg := Fig12Config()
				cfg.Iters = 4
				res, err := bpmf.Run(w, cfg)
				w.Close()
				if err != nil {
					return 0, err
				}
				return res.Makespan, nil
			},
		},
	}
}
