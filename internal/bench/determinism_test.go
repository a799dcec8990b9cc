package bench

import (
	"testing"

	"repro/internal/bpmf"
	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/summa"
)

// The data-plane optimizations (zero-copy buffer views, specialized
// reduction kernels, pooled matcher records, plan-sharing communicator
// construction) must not move a single picosecond of virtual time. The
// golden values below were captured from the pre-refactor tree (PR 1
// seed plus go.mod only) and pin the virtual makespans of the standard
// wall-clock workloads, which cover the paper's Fig. 7, 9, 11 and 12
// scale points plus the p2p engine.
var goldenVirtualPs = map[string]int64{
	"p2p/pingpong_2x1_8B":       1_900_960,
	"fig7/allgather_1x24_e512":  68_697_760,
	"fig9/allgather_64x24_e512": 5_222_157_840,
	"stencil/halo4d_256_e64":    31_383_040,
	"fig11/summa_c64_b64":       1_465_384_160,
	"fig12/bpmf_c120":           222_228_848_646,
}

func TestVirtualTimeUnchangedByDataPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale runs in -short mode")
	}
	for _, c := range wallCases() {
		want, ok := goldenVirtualPs[c.Name]
		if !ok {
			t.Errorf("%s: no golden virtual time recorded; add it when adding cases", c.Name)
			continue
		}
		got, err := c.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if int64(got) != want {
			t.Errorf("%s: virtual makespan %d ps, golden %d ps — the refactor changed virtual time",
				c.Name, int64(got), want)
		}
	}
}

// TestVirtualTimeIdenticalOnEventEngine is the cross-engine
// differential gate: every golden workload — the paper's figure-scale
// runs, the halo stencil, the p2p engine — re-run on the discrete-event
// backend must land on the same golden picosecond as the goroutine
// backend.
func TestVirtualTimeIdenticalOnEventEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale runs in -short mode")
	}
	for _, c := range wallCases(mpi.WithEngine(sim.EngineEvent)) {
		want, ok := goldenVirtualPs[c.Name]
		if !ok {
			// Golden coverage is enforced by TestVirtualTimeUnchangedByDataPlane.
			continue
		}
		got, err := c.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if int64(got) != want {
			t.Errorf("%s: event-engine makespan %d ps, golden %d ps — the engines diverged",
				c.Name, int64(got), want)
		}
	}
}

// wallCase is one figure-scale workload whose virtual makespan the
// golden determinism tests pin to the picosecond. Run executes one
// operation and returns that makespan. (Host-time measurement of the
// same scale points lives in benchmark/, outside this package.)
type wallCase struct {
	Name string
	Run  func() (sim.Time, error)
}

// wallCases returns the standard figure-scale workload set: the paper's
// Fig. 7 (one full node), Fig. 9 (64 nodes x 24 ranks — 1536 rank
// goroutines), and Fig. 11 (SUMMA) scale points, plus a small-message
// ping-pong that isolates the p2p matcher fast path. Every world the
// cases build takes opts, which is how a test picks the engine.
func wallCases(opts ...mpi.Option) []wallCase {
	cray := sim.HazelHenCray()
	return []wallCase{
		{
			Name: "p2p/pingpong_2x1_8B",
			Run: func() (sim.Time, error) {
				return PingPong(cray, false, 8, 64, opts...)
			},
		},
		{
			Name: "fig7/allgather_1x24_e512",
			Run: func() (sim.Time, error) {
				hy, err := HyAllgatherLatency(cray, []int{CoresPerNode}, 8*512, MicroOpts{}, opts...)
				if err != nil {
					return 0, err
				}
				pure, err := PureAllgatherLatency(cray, []int{CoresPerNode}, 8*512, MicroOpts{}, opts...)
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
				hy, err := HyAllgatherLatency(cray, shape, 8*512, MicroOpts{Iters: 2}, opts...)
				if err != nil {
					return 0, err
				}
				pure, err := PureAllgatherLatency(cray, shape, 8*512, MicroOpts{Iters: 2}, opts...)
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
				w, err := mpi.NewWorld(cray, topo, opts...)
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
					w, err := mpi.NewWorld(cray, topo, opts...)
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
				w, err := mpi.NewWorld(cray, topo, opts...)
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
