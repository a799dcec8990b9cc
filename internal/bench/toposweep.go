package bench

import (
	"fmt"
	"io"

	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/spec"
)

// The topology sweep is the multi-level dimension of cmd/perf -sweep:
// for each level stack (node-only, socket ⊂ node, socket ⊂ node ⊂
// group) and ranks-per-node count it runs the composed pure-MPI
// allgather and the hybrid allgather (a spec.Query with allgather=hybrid
// and the window at the stack's innermost shared level), records the
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
	build  func(nodes, ppn int) spec.Topology
}

var topoStacks = []topoStack{
	{
		name:   "node",
		levels: []string{"node"},
		shared: "node",
		build:  func(nodes, ppn int) spec.Topology { return spec.Topology{Nodes: nodes, PPN: ppn} },
	},
	{
		name:   "socket+node",
		levels: []string{"socket", "node"},
		shared: "socket",
		build: func(nodes, ppn int) spec.Topology {
			return spec.Topology{PerLeaf: ppn / 2, Levels: []sim.LevelDim{{Name: "socket", Arity: 2}, {Name: "node", Arity: nodes}}}
		},
	},
	{
		name:   "socket+node+group",
		levels: []string{"socket", "node", "group"},
		shared: "socket",
		build: func(nodes, ppn int) spec.Topology {
			return spec.Topology{PerLeaf: ppn / 2, Levels: []sim.LevelDim{
				{Name: "socket", Arity: 2}, {Name: "node", Arity: nodes / 2}, {Name: "group", Arity: 2}}}
		},
	},
}

// RunTopoSweep measures the topology dimension: levels x ppn at a
// fixed node count, two payload sizes per point.
func RunTopoSweep(model *sim.CostModel, tun coll.Tuning) (*TopoSweepReport, error) {
	rep := &TopoSweepReport{Model: model.Name, Policy: tun.Policy.String()}
	const nodes = 8
	for _, st := range topoStacks {
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
	// Hybrid allgather with the window at the stack's shared level: the
	// spec.Query forcing allgather=hybrid under the sweep's tuning.
	force := map[string]string{}
	for cl, algo := range tun.Force {
		force[cl.String()] = algo
	}
	force["allgather"] = "hybrid"
	q := &spec.Query{Machine: model.Name, Topology: st.build(nodes, ppn), Collective: "allgather", Sizes: []int{bytes},
		Tuning: spec.Tuning{Policy: tun.Policy.String(), Force: force, SharedLevel: st.shared}}
	hy, err := spec.Run(q)
	if err != nil {
		return TopoPoint{}, err
	}
	topo, err := q.Topology.Build()
	if err != nil {
		return TopoPoint{}, err
	}
	pt := TopoPoint{
		Stack: st.name, Levels: topo.NumLevels(),
		Nodes: nodes, PPN: ppn, Bytes: bytes, SharedLevel: st.shared,
		HybridUs: hy.Points[0].VirtualUsPerOp,
	}

	// Composed pure-MPI allgather over the whole stack.
	w, err := mpi.NewWorld(model, topo, mpi.WithCollConfig(tun))
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
			ests, _, err := h.PriceAllgather(bytes, tun)
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
	return pt, nil
}
