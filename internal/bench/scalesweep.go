package bench

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/sim"
	"repro/internal/spec"
)

// The scale sweep is the scale-out dimension of cmd/perf -sweep: the
// size-only hierarchical allgather and allreduce as the rank count
// grows toward the million-rank regime — 64x64 up to 16384x64 =
// 1,048,576 ranks, far beyond the paper's testbed. Each point is one
// spec.Query (8 B per rank, 2 iterations, fold "auto") run per
// execution backend: the goroutine engine runs every shape up to
// 65,536 ranks unfolded; the event engine additionally runs the
// million-rank shape, folded whenever the coll fold helpers approve
// (FoldUnit > 0). When both engines run a point, spec.Agree demands
// bit-identical virtual makespans — the folded event run must
// reproduce the unfolded goroutine timeline exactly, or the sweep
// fails.

// ScalePoint is one (shape, collective, engine) run.
type ScalePoint struct {
	Coll      string  `json:"coll"`
	Engine    string  `json:"engine"`    // execution backend of this point
	FoldUnit  int     `json:"fold_unit"` // rank-symmetry fold unit (0 = unfolded)
	Nodes     int     `json:"nodes"`
	PPN       int     `json:"ppn"`
	Ranks     int     `json:"ranks"`
	Bytes     int     `json:"bytes"` // payload bytes per rank
	Iters     int     `json:"iters"`
	VirtualUs float64 `json:"virtual_us"` // per-op virtual makespan
	VirtualPs int64   `json:"virtual_ps"` // exact total makespan (cross-engine equality)
}

// ScaleSweepReport is the scale section of a sweep report.
type ScaleSweepReport struct {
	Model    string       `json:"model"`
	MaxRanks int          `json:"max_ranks"`
	Points   []ScalePoint `json:"points"`
}

// Fprint lists every point.
func (s *ScaleSweepReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\nscale-sweep (%s, up to %d ranks):\n", s.Model, s.MaxRanks)
	for _, p := range s.Points {
		fold := ""
		if p.FoldUnit > 0 {
			fold = fmt.Sprintf(" fold %d", p.FoldUnit)
		}
		fmt.Fprintf(w, "  %-10s %5dx%-3d %7d ranks %-9s virtual %10.2f us%s\n",
			p.Coll, p.Nodes, p.PPN, p.Ranks, p.Engine, p.VirtualUs, fold)
	}
}

// scaleShapes is the node-count ladder of the sweep at 64 ranks per
// node: 4096, 8192, 16384, 65536 and 1,048,576 ranks, capped by
// maxRanks (the CI smoke job stops at the 8192 point; the million-rank
// shape is event-engine-only).
func scaleShapes(maxRanks int) [][2]int {
	all := [][2]int{{64, 64}, {128, 64}, {256, 64}, {1024, 64}, {16384, 64}}
	var out [][2]int
	for _, s := range all {
		if s[0]*s[1] <= maxRanks {
			out = append(out, s)
		}
	}
	return out
}

// goroutineEngineMaxRanks is the largest shape the goroutine backend
// runs in the sweep. Beyond it (the million-rank shape) a
// goroutine-per-rank world is no longer a sensible measurement — that
// regime is exactly what the event engine plus folding exists for.
const goroutineEngineMaxRanks = 65536

// RunScaleSweep runs the scale dimension up to maxRanks ranks on each
// of the given execution backends (both engines when engines is
// empty). Points that run on both backends must agree on their virtual
// makespan.
func RunScaleSweep(machine string, maxRanks int, engines []sim.Engine) (*ScaleSweepReport, error) {
	const bytesPerRank, iters = 8, 2
	if len(engines) == 0 {
		engines = []sim.Engine{sim.EngineGoroutine, sim.EngineEvent}
	}
	rep := &ScaleSweepReport{Model: machine, MaxRanks: maxRanks}
	for _, shape := range scaleShapes(maxRanks) {
		nodes, ppn := shape[0], shape[1]
		for _, collName := range []string{"allgather", "allreduce"} {
			var ref *spec.Result
			for _, eng := range engines {
				if eng == sim.EngineGoroutine && nodes*ppn > goroutineEngineMaxRanks {
					continue
				}
				q := &spec.Query{
					Machine:    machine,
					Topology:   spec.Topology{Nodes: nodes, PPN: ppn},
					Collective: collName,
					Sizes:      []int{bytesPerRank},
					Iters:      iters,
					Engine:     eng.String(),
				}
				res, err := spec.Run(q)
				if err == nil && ref != nil {
					err = spec.Agree(eng.String(), res, ref)
				}
				if err != nil {
					return nil, fmt.Errorf("bench: scale sweep %s %dx%d (%s): %w", collName, nodes, ppn, eng, err)
				}
				if ref == nil {
					ref = res
				}
				pt := res.Points[0]
				rep.Points = append(rep.Points, ScalePoint{
					Coll: collName, Engine: res.Engine, FoldUnit: pt.FoldUnit,
					Nodes: nodes, PPN: ppn, Ranks: res.Ranks, Bytes: bytesPerRank, Iters: iters,
					VirtualUs: pt.VirtualUsPerOp, VirtualPs: pt.VirtualPs,
				})
				runtime.GC() // release the point's world before the next one
			}
		}
	}
	return rep, nil
}
