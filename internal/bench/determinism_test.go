package bench

import (
	"testing"

	"repro/internal/bpmf"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/spec"
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
	"fig11/summa_c64_b64":       1_465_384_160,
	"fig12/bpmf_c120":           222_228_848_646,
}

func TestVirtualTimeUnchangedByDataPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale runs in -short mode")
	}
	for _, c := range wallCases(sim.EngineGoroutine) {
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
// runs and the p2p engine — re-run on the discrete-event backend must
// land on the same golden picosecond as the goroutine backend.
func TestVirtualTimeIdenticalOnEventEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale runs in -short mode")
	}
	for _, c := range wallCases(sim.EngineEvent) {
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

// wallCases returns the standard figure-scale workload set on engine:
// the paper's Fig. 7 (one full node) and Fig. 9 (64 nodes x 24 ranks —
// 1536 ranks) allgather pairs as the figures run them (spec Queries,
// fold auto), the Fig. 11 (SUMMA) and Fig. 12 (BPMF) scale points, and
// a small-message ping-pong that isolates the p2p matcher fast path.
func wallCases(engine sim.Engine) []wallCase {
	cray := sim.HazelHenCray()
	opts := []mpi.Option{mpi.WithEngine(engine)}
	// pair is one op's Hy_Allgather plus pure Allgather virtual time at
	// 512 elements per rank, each averaged over iters operations.
	pair := func(topo spec.Topology, iters int) (sim.Time, error) {
		var sum sim.Time
		for _, hy := range []bool{true, false} {
			q := AllgatherQuery(cray.Name, topo, []int{512}, hy)
			q.Iters, q.Engine = iters, engine.String()
			res, err := spec.Run(q)
			if err != nil {
				return 0, err
			}
			sum += sim.Time(res.Points[0].VirtualPs) / sim.Time(iters)
		}
		return sum, nil
	}
	return []wallCase{
		{
			Name: "p2p/pingpong_2x1_8B",
			Run: func() (sim.Time, error) {
				return PingPong(cray, false, 8, 64, opts...)
			},
		},
		{
			Name: "fig7/allgather_1x24_e512",
			Run:  func() (sim.Time, error) { return pair(spec.Topology{Nodes: 1, PPN: CoresPerNode}, 5) },
		},
		{
			Name: "fig9/allgather_64x24_e512",
			Run:  func() (sim.Time, error) { return pair(spec.Topology{Nodes: 64, PPN: 24}, 2) },
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
