package bench

import (
	"fmt"

	"repro/internal/bpmf"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/summa"
)

// FigOpts tunes the sweeps; the zero value reproduces the paper's
// parameters at a coarser element grid (use Fine for the full grid).
type FigOpts struct {
	Fine bool // full 2^0..2^15 element sweep instead of every 4th
}

func (o FigOpts) elems() []int {
	if o.Fine {
		return ElemsFine()
	}
	return Elems()
}

// AllgatherQuery is one series of Figs. 7-10: the allgather ladder of
// elems doubles per rank on machine over topo, Hy_Allgather (force
// allgather=hybrid) when hybrid, else the SMP-aware pure MPI_Allgather.
// Five operations per point: the OSU benchmark averages 10,000, but
// virtual time is deterministic, so a handful gives the same mean.
func AllgatherQuery(machine string, topo spec.Topology, elems []int, hybrid bool) *spec.Query {
	q := &spec.Query{Machine: machine, Topology: topo, Collective: "allgather", Iters: 5}
	for _, e := range elems {
		q.Sizes = append(q.Sizes, 8*e)
	}
	if hybrid {
		q.Tuning.Force = map[string]string{"allgather": "hybrid"}
	}
	return q
}

// addPair appends machine m's Hy_Allgather and pure Allgather
// latencies over topo, in us per op, to rows: row i gets the pair at
// elems[i] (ascending).
func addPair(rows [][]string, m *sim.CostModel, topo spec.Topology, elems []int) error {
	for _, hy := range []bool{true, false} {
		res, err := spec.Run(AllgatherQuery(m.Name, topo, elems, hy))
		if err != nil {
			return err
		}
		for i, p := range res.Points {
			rows[i] = append(rows[i], fmt.Sprintf("%.2f", p.VirtualUsPerOp))
		}
	}
	return nil
}

// labelRows returns one row per label, each holding only its label.
func labelRows(labels []int) [][]string {
	rows := make([][]string, len(labels))
	for i, l := range labels {
		rows[i] = []string{fmt.Sprint(l)}
	}
	return rows
}

// Fig7 reproduces the single-full-node comparison: Hy_Allgather vs
// Allgather on 24 ranks of one node, for both library stacks.
func Fig7(o FigOpts) (*Table, error) {
	return sizeSweep(&Table{
		Name:   "Figure 7: allgather within one full node (24 ranks), time in us",
		Note:   "Paper: Hy_Allgather is flat (one node barrier) and always below Allgather.",
		Header: []string{"elems", "Hy+OpenMPI", "Ag+OpenMPI", "Hy+CrayMPI", "Ag+CrayMPI"},
	}, spec.Topology{Nodes: 1, PPN: CoresPerNode}, o)
}

// sizeSweep fills t with one row per element count: both machines'
// Hy_Allgather and Allgather latencies on topo.
func sizeSweep(t *Table, topo spec.Topology, o FigOpts) (*Table, error) {
	t.Rows = labelRows(o.elems())
	for _, m := range Machines() {
		if err := addPair(t.Rows, m, topo, o.elems()); err != nil {
			return nil, err
		}
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
			Rows: labelRows(o.elems()),
		}
		for _, nodes := range []int{4, 16, 64} {
			if err := addPair(t.Rows, m, spec.Topology{Nodes: nodes, PPN: 1}, o.elems()); err != nil {
				return nil, err
			}
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig9 reproduces the ppn scaling on 64 nodes for 512 and 16384
// elements: one table per element count, both counts on one ladder.
func Fig9(o FigOpts) ([]*Table, error) {
	elems := []int{512, 16384}
	var tables []*Table
	for _, e := range elems {
		tables = append(tables, &Table{
			Name: fmt.Sprintf("Figure 9: allgather across 64 nodes, %d elements, time in us", e),
			Note: "Paper: the Hy_Allgather advantage grows with ranks per node.",
			Header: []string{"ppn",
				"Hy+OpenMPI", "Ag+OpenMPI", "Hy+CrayMPI", "Ag+CrayMPI"},
		})
	}
	for ppn := 3; ppn <= 24; ppn += 3 {
		rows := labelRows([]int{ppn, ppn}) // one row per entry of elems
		for _, m := range Machines() {
			if err := addPair(rows, m, spec.Topology{Nodes: 64, PPN: ppn}, elems); err != nil {
				return nil, err
			}
		}
		for i, t := range tables {
			t.AddRow(rows[i]...)
		}
	}
	return tables, nil
}

// Fig10Shape is the irregular population of Fig. 10: 42 nodes with 24
// ranks plus one node with 16 ranks (1024 ranks total).
func Fig10Shape() []int { return ShapeFor(1024) }

// Fig10 reproduces the irregularly-populated-nodes comparison.
func Fig10(o FigOpts) (*Table, error) {
	return sizeSweep(&Table{
		Name:   "Figure 10: allgather on irregularly populated nodes (42x24 + 1x16 = 1024 ranks), time in us",
		Note:   "Paper: Hy_Allgather keeps consistently lower latency.",
		Header: []string{"elems", "Hy+OpenMPI", "Ag+OpenMPI", "Hy+CrayMPI", "Ag+CrayMPI"},
	}, spec.Topology{NodeSizes: Fig10Shape()}, o)
}

// Fig11Cores is the core-count sweep of the SUMMA figures; each count
// must be a perfect square (process grid).
func Fig11Cores() []int { return []int{4, 16, 64, 256, 1024} }

// Fig11Blocks is the per-core block size sweep (the four panels).
func Fig11Blocks() []int { return []int{8, 64, 128, 256} }

// Fig11 reproduces the SUMMA comparison (Ori_SUMMA vs Hy_SUMMA and
// their ratio) on the Cray profile, one table per block size of
// Fig11Blocks (the paper's four panels).
func Fig11(o FigOpts) ([]*Table, error) {
	var tables []*Table
	for _, b := range Fig11Blocks() {
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
			ori, hy, err := oriHy(cores, func(w *mpi.World, hy bool) (sim.Time, error) {
				res, err := summa.Run(w, summa.Config{GridDim: grid, BlockDim: b, Hybrid: hy})
				return res.Makespan, err
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprint(cores), fmtUs(ori), fmtUs(hy),
				fmt.Sprintf("%.2f", float64(ori)/float64(hy)))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// oriHy runs one application point on the Cray profile over cores
// ranks laid out by ShapeFor: the pure-MPI flavor, then the hybrid one,
// each on a fresh world. It returns both makespans.
func oriHy(cores int, run func(w *mpi.World, hy bool) (sim.Time, error)) (ori, hy sim.Time, err error) {
	topo, err := sim.NewTopology(ShapeFor(cores))
	if err != nil {
		return 0, 0, err
	}
	var t [2]sim.Time
	for i, h := range []bool{false, true} {
		w, err := mpi.NewWorld(sim.HazelHenCray(), topo)
		if err != nil {
			return 0, 0, err
		}
		t[i], err = run(w, h)
		w.Close()
		if err != nil {
			return 0, 0, err
		}
	}
	return t[0], t[1], nil
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
	t := &Table{
		Name:   "Figure 12: BPMF TotalTime ratio Ori_BPMF/Hy_BPMF (20 iterations, chembl_20-shaped synthetic data)",
		Note:   "Paper: ratio above 1, slowly rising with core count (up to ~1.1 at 1024 cores).",
		Header: []string{"cores", "Ori_ms", "Hy_ms", "ratio"},
	}
	for _, cores := range Fig12Cores() {
		ori, hy, err := oriHy(cores, func(w *mpi.World, hy bool) (sim.Time, error) {
			cfg := Fig12Config()
			cfg.Hybrid = hy
			res, err := bpmf.Run(w, cfg)
			return res.Makespan, err
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(cores),
			fmt.Sprintf("%.1f", ori.Ms()), fmt.Sprintf("%.1f", hy.Ms()),
			fmt.Sprintf("%.3f", float64(ori)/float64(hy)))
	}
	return t, nil
}
