package bench

import (
	"fmt"
	"io"

	"repro/internal/coll"
	"repro/internal/hybrid"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// The topology sweep is the multi-level dimension of cmd/perf -sweep:
// for each level stack (node-only, socket ⊂ node, socket ⊂ node ⊂
// group) and ranks-per-node count it runs the composed pure-MPI
// allgather and the hybrid allgather (window at the stack's innermost
// shared level, threaded through coll.Tuning.SharedLevel), records the
// virtual makespans and the priced per-tier composition. The sweep
// golden pins the table, so a PR that moves a per-level crossover or a
// topology's virtual time shows up in review.

// TopoPoint is one (stack, shape, size) measurement.
type TopoPoint struct {
	Stack       string              `json:"stack"`
	Levels      int                 `json:"levels"`
	Nodes       int                 `json:"nodes"`
	PPN         int                 `json:"ppn"`
	Bytes       int                 `json:"bytes"`
	SharedLevel string              `json:"shared_level"`
	HierUs      float64             `json:"hier_virtual_us"`
	HybridUs    float64             `json:"hybrid_virtual_us"`
	Composition []coll.TierEstimate `json:"composition"`
}

// TopoSweepReport is the topology section of a BENCH_*.json document.
type TopoSweepReport struct {
	Model  string      `json:"model"`
	Policy string      `json:"policy"`
	Points []TopoPoint `json:"points"`
}

// Fprint lists every point.
func (s *TopoSweepReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\ntopo-sweep (%s, policy %s): %d points (levels x ppn):\n",
		s.Model, s.Policy, len(s.Points))
	for _, p := range s.Points {
		fmt.Fprintf(w, "  %-18s %dx%-3d %8dB  hier %10.2f us  hybrid(%s) %10.2f us\n",
			p.Stack, p.Nodes, p.PPN, p.Bytes, p.HierUs, p.SharedLevel, p.HybridUs)
	}
}

// topoStack describes one sweep topology family.
type topoStack struct {
	name   string
	levels []string // composer stack, innermost first
	shared string   // hybrid window level
	build  func(nodes, ppn int) (*sim.Topology, error)
}

func topoStacks() []topoStack {
	return []topoStack{
		{
			name:   "node",
			levels: []string{"node"},
			shared: "node",
			build:  func(nodes, ppn int) (*sim.Topology, error) { return sim.Uniform(nodes, ppn) },
		},
		{
			name:   "socket+node",
			levels: []string{"socket", "node"},
			shared: "socket",
			build: func(nodes, ppn int) (*sim.Topology, error) {
				return sim.UniformHier(ppn/2,
					sim.LevelDim{Name: "socket", Arity: 2},
					sim.LevelDim{Name: "node", Arity: nodes})
			},
		},
		{
			name:   "socket+node+group",
			levels: []string{"socket", "node", "group"},
			shared: "socket",
			build: func(nodes, ppn int) (*sim.Topology, error) {
				return sim.UniformHier(ppn/2,
					sim.LevelDim{Name: "socket", Arity: 2},
					sim.LevelDim{Name: "node", Arity: nodes / 2},
					sim.LevelDim{Name: "group", Arity: 2})
			},
		},
	}
}

// RunTopoSweep measures the topology dimension: levels x ppn at a
// fixed node count, two payload sizes per point.
func RunTopoSweep(model *sim.CostModel, tun coll.Tuning) (*TopoSweepReport, error) {
	rep := &TopoSweepReport{Model: model.Name, Policy: tun.Policy.String()}
	const nodes = 8
	for _, st := range topoStacks() {
		for _, ppn := range []int{8, 24} {
			for _, bytes := range []int{4 << 10, 512 << 10} {
				pt, err := runTopoPoint(model, tun, st, nodes, ppn, bytes)
				if err != nil {
					return nil, fmt.Errorf("bench: topo sweep %s %dx%d: %w", st.name, nodes, ppn, err)
				}
				rep.Points = append(rep.Points, pt)
			}
		}
	}
	return rep, nil
}

func runTopoPoint(model *sim.CostModel, tun coll.Tuning, st topoStack, nodes, ppn, bytes int) (TopoPoint, error) {
	topo, err := st.build(nodes, ppn)
	if err != nil {
		return TopoPoint{}, err
	}
	pt := TopoPoint{
		Stack: st.name, Levels: topo.NumLevels(),
		Nodes: nodes, PPN: ppn, Bytes: bytes, SharedLevel: st.shared,
	}

	// Composed pure-MPI allgather over the whole stack.
	hierTun := tun
	w, err := mpi.NewWorld(model, topo, mpi.WithCollConfig(hierTun))
	if err != nil {
		return TopoPoint{}, err
	}
	defer w.Close()
	if err := w.Run(func(p *mpi.Proc) error {
		h, err := coll.NewHierStack(p.CommWorld(), st.levels...)
		if err != nil {
			return err
		}
		if err := h.Allgather(mpi.Sized(bytes), mpi.Sized(bytes*p.Size()), bytes); err != nil {
			return err
		}
		if p.Rank() == 0 {
			ests, _, err := h.PriceAllgather(bytes, hierTun)
			if err != nil {
				return err
			}
			pt.Composition = ests
		}
		return nil
	}); err != nil {
		return TopoPoint{}, err
	}
	pt.HierUs = w.MaxClock().Us()

	// Hybrid allgather with the window at the stack's shared level,
	// selected through the world's tuning (coll.Tuning.SharedLevel).
	hyTun := tun
	hyTun.SharedLevel = st.shared
	w2, err := mpi.NewWorld(model, topo, mpi.WithCollConfig(hyTun))
	if err != nil {
		return TopoPoint{}, err
	}
	defer w2.Close()
	if err := w2.Run(func(p *mpi.Proc) error {
		ctx, err := hybrid.New(p.CommWorld())
		if err != nil {
			return err
		}
		a, err := ctx.NewAllgatherer(bytes)
		if err != nil {
			return err
		}
		return a.Allgather()
	}); err != nil {
		return TopoPoint{}, err
	}
	pt.HybridUs = w2.MaxClock().Us()
	return pt, nil
}
