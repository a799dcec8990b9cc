package bench

import (
	"fmt"

	"repro/internal/bpmf"
	"repro/internal/sim"
	"repro/internal/summa"

	"repro/internal/mpi"
)

// FigOpts tunes the sweeps; the zero value reproduces the paper's
// parameters at a coarser element grid (use Fine for the full grid).
type FigOpts struct {
	Fine  bool // full 2^0..2^15 element sweep instead of every 4th
	Iters int  // timed iterations per point
}

func (o FigOpts) elems() []int {
	if o.Fine {
		return ElemsFine()
	}
	return Elems()
}

// Fig7 reproduces the single-full-node comparison: Hy_Allgather vs
// Allgather on 24 ranks of one node, for both library stacks.
func Fig7(o FigOpts) (*Table, error) {
	t := &Table{
		Name:   "Figure 7: allgather within one full node (24 ranks), time in us",
		Note:   "Paper: Hy_Allgather is flat (one node barrier) and always below Allgather.",
		Header: []string{"elems", "Hy+OpenMPI", "Ag+OpenMPI", "Hy+CrayMPI", "Ag+CrayMPI"},
	}
	shape := []int{CoresPerNode}
	for _, elems := range o.elems() {
		row := []string{fmt.Sprint(elems)}
		for _, m := range Machines() {
			hy, err := HyAllgatherLatency(m, shape, 8*elems, MicroOpts{Iters: o.Iters})
			if err != nil {
				return nil, err
			}
			pure, err := PureAllgatherLatency(m, shape, 8*elems, MicroOpts{Iters: o.Iters})
			if err != nil {
				return nil, err
			}
			row = append(row, fmtUs(hy), fmtUs(pure))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig8 reproduces the one-rank-per-node comparison over 4, 16 and 64
// nodes (one sub-table per library stack, as in Figs. 8a/8b).
func Fig8(o FigOpts) ([]*Table, error) {
	var tables []*Table
	for _, m := range Machines() {
		t := &Table{
			Name: fmt.Sprintf("Figure 8 (%s): allgather with one rank per node, time in us", m.Name),
			Note: "Paper: Hy_Allgather (MPI_Allgatherv) is slightly slower; the gap narrows at 64 nodes.",
			Header: []string{"elems",
				"Hy4", "Ag4", "Hy16", "Ag16", "Hy64", "Ag64"},
		}
		for _, elems := range o.elems() {
			row := []string{fmt.Sprint(elems)}
			for _, nodes := range []int{4, 16, 64} {
				shape := make([]int, nodes)
				for i := range shape {
					shape[i] = 1
				}
				hy, err := HyAllgatherLatency(m, shape, 8*elems, MicroOpts{Iters: o.Iters})
				if err != nil {
					return nil, err
				}
				pure, err := PureAllgatherLatency(m, shape, 8*elems, MicroOpts{Iters: o.Iters})
				if err != nil {
					return nil, err
				}
				row = append(row, fmtUs(hy), fmtUs(pure))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig9 reproduces the ppn scaling on 64 nodes for 512 and 16384
// elements.
func Fig9(o FigOpts) ([]*Table, error) {
	var tables []*Table
	for _, elems := range []int{512, 16384} {
		t := &Table{
			Name: fmt.Sprintf("Figure 9: allgather across 64 nodes, %d elements, time in us", elems),
			Note: "Paper: the Hy_Allgather advantage grows with ranks per node.",
			Header: []string{"ppn",
				"Hy+OpenMPI", "Ag+OpenMPI", "Hy+CrayMPI", "Ag+CrayMPI"},
		}
		for ppn := 3; ppn <= 24; ppn += 3 {
			shape := make([]int, 64)
			for i := range shape {
				shape[i] = ppn
			}
			row := []string{fmt.Sprint(ppn)}
			for _, m := range Machines() {
				hy, err := HyAllgatherLatency(m, shape, 8*elems, MicroOpts{Iters: o.Iters})
				if err != nil {
					return nil, err
				}
				pure, err := PureAllgatherLatency(m, shape, 8*elems, MicroOpts{Iters: o.Iters})
				if err != nil {
					return nil, err
				}
				row = append(row, fmtUs(hy), fmtUs(pure))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig10Shape is the irregular population of Fig. 10: 42 nodes with 24
// ranks plus one node with 16 ranks (1024 ranks total).
func Fig10Shape() []int {
	shape := make([]int, 43)
	for i := 0; i < 42; i++ {
		shape[i] = 24
	}
	shape[42] = 16
	return shape
}

// Fig10 reproduces the irregularly-populated-nodes comparison.
func Fig10(o FigOpts) (*Table, error) {
	t := &Table{
		Name:   "Figure 10: allgather on irregularly populated nodes (42x24 + 1x16 = 1024 ranks), time in us",
		Note:   "Paper: Hy_Allgather keeps consistently lower latency.",
		Header: []string{"elems", "Hy+OpenMPI", "Ag+OpenMPI", "Hy+CrayMPI", "Ag+CrayMPI"},
	}
	shape := Fig10Shape()
	for _, elems := range o.elems() {
		row := []string{fmt.Sprint(elems)}
		for _, m := range Machines() {
			hy, err := HyAllgatherLatency(m, shape, 8*elems, MicroOpts{Iters: o.Iters})
			if err != nil {
				return nil, err
			}
			pure, err := PureAllgatherLatency(m, shape, 8*elems, MicroOpts{Iters: o.Iters})
			if err != nil {
				return nil, err
			}
			row = append(row, fmtUs(hy), fmtUs(pure))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig11Cores is the core-count sweep of the SUMMA figures; each count
// must be a perfect square (process grid).
func Fig11Cores() []int { return []int{4, 16, 64, 256, 1024} }

// Fig11Blocks is the per-core block size sweep (the four panels).
func Fig11Blocks() []int { return []int{8, 64, 128, 256} }

// Fig11 reproduces the SUMMA comparison (Ori_SUMMA vs Hy_SUMMA and
// their ratio) on the Cray profile, one table per block size in blocks
// (nil = Fig11Blocks, the paper's four panels).
func Fig11(o FigOpts, blocks []int) ([]*Table, error) {
	model := sim.HazelHenCray()
	if blocks == nil {
		blocks = Fig11Blocks()
	}
	var tables []*Table
	for _, b := range blocks {
		t := &Table{
			Name:   fmt.Sprintf("Figure 11 (%dx%d blocks): SUMMA on Cray profile", b, b),
			Note:   "Paper: ratio > 1 everywhere; largest for small blocks on one node, shrinking as compute grows.",
			Header: []string{"cores", "Ori_us", "Hy_us", "ratio"},
		}
		for _, cores := range Fig11Cores() {
			grid := 1
			for grid*grid < cores {
				grid++
			}
			topo, err := sim.NewTopology(ShapeFor(cores))
			if err != nil {
				return nil, err
			}
			var ori, hy sim.Time
			for _, hybridRun := range []bool{false, true} {
				w, err := mpi.NewWorld(model, topo)
				if err != nil {
					return nil, err
				}
				res, err := summa.Run(w, summa.Config{GridDim: grid, BlockDim: b, Hybrid: hybridRun})
				w.Close()
				if err != nil {
					return nil, err
				}
				if hybridRun {
					hy = res.Makespan
				} else {
					ori = res.Makespan
				}
			}
			t.AddRow(fmt.Sprint(cores), fmtUs(ori), fmtUs(hy),
				fmt.Sprintf("%.2f", float64(ori)/float64(hy)))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig12Cores is the BPMF core sweep.
func Fig12Cores() []int { return []int{24, 120, 240, 360, 480, 1024} }

// Fig12Config is the chembl_20-shaped workload (see EXPERIMENTS.md for
// the calibration of the per-row overhead).
func Fig12Config() bpmf.Config {
	// Users matches chembl_20's compound count; the target side is
	// widened from 346 so every rank of the 1024-core point holds at
	// least one item row (see EXPERIMENTS.md).
	return bpmf.Config{
		Users: 15073, Items: 2048, K: 10, AvgDeg: 4,
		Iters: 20, Seed: 20, RowOverheadFlops: 3e6,
	}
}

// Fig12 reproduces the BPMF TotalTime ratio sweep on the Cray profile.
func Fig12(o FigOpts) (*Table, error) {
	model := sim.HazelHenCray()
	t := &Table{
		Name:   "Figure 12: BPMF TotalTime ratio Ori_BPMF/Hy_BPMF (20 iterations, chembl_20-shaped synthetic data)",
		Note:   "Paper: ratio above 1, slowly rising with core count (up to ~1.1 at 1024 cores).",
		Header: []string{"cores", "Ori_ms", "Hy_ms", "ratio"},
	}
	base := Fig12Config()
	for _, cores := range Fig12Cores() {
		topo, err := sim.NewTopology(ShapeFor(cores))
		if err != nil {
			return nil, err
		}
		var ori, hy sim.Time
		for _, hybridRun := range []bool{false, true} {
			w, err := mpi.NewWorld(model, topo)
			if err != nil {
				return nil, err
			}
			cfg := base
			cfg.Hybrid = hybridRun
			res, err := bpmf.Run(w, cfg)
			w.Close()
			if err != nil {
				return nil, err
			}
			if hybridRun {
				hy = res.Makespan
			} else {
				ori = res.Makespan
			}
		}
		t.AddRow(fmt.Sprint(cores),
			fmt.Sprintf("%.1f", ori.Ms()), fmt.Sprintf("%.1f", hy.Ms()),
			fmt.Sprintf("%.3f", float64(ori)/float64(hy)))
	}
	return t, nil
}
