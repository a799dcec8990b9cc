package hybrid

import (
	"fmt"
	"testing"

	"repro/internal/mpi"
)

func TestHyGather(t *testing.T) {
	for _, shape := range [][]int{{4}, {3, 3}, {4, 2, 3}} {
		for _, root := range []int{0, 1} {
			t.Run(fmt.Sprintf("%v/root%d", shape, root), func(t *testing.T) {
				n := 0
				for _, s := range shape {
					n += s
				}
				runWorld(t, shape, func(p *mpi.Proc) error {
					ctx, err := New(p.CommWorld())
					if err != nil {
						return err
					}
					g, err := ctx.NewGatherer(8)
					if err != nil {
						return err
					}
					g.Mine().PutFloat64(0, float64(500+p.Rank()))
					if err := g.Gather(root); err != nil {
						return err
					}
					// Every rank on the root's node can read the result.
					rootNode := ctx.comp.GroupOfSlot(0, ctx.SlotOf(root))
					if ctx.MyNodeIdx() == rootNode {
						res := g.Result()
						for r := 0; r < n; r++ {
							slot := ctx.SlotOf(r)
							if got := res.Slice(slot*8, 8).Float64At(0); got != float64(500+r) {
								t.Errorf("rank %d sees slot of %d = %v", p.Rank(), r, got)
								return nil
							}
						}
					}
					return nil
				})
			})
		}
	}
}

func TestHyScatter(t *testing.T) {
	for _, shape := range [][]int{{4}, {3, 3}, {2, 4}} {
		for _, root := range []int{0, 1} {
			t.Run(fmt.Sprintf("%v/root%d", shape, root), func(t *testing.T) {
				n := 0
				for _, s := range shape {
					n += s
				}
				runWorld(t, shape, func(p *mpi.Proc) error {
					ctx, err := New(p.CommWorld())
					if err != nil {
						return err
					}
					s, err := ctx.NewScatterer(8)
					if err != nil {
						return err
					}
					if p.Rank() == root {
						in := s.Input()
						for r := 0; r < n; r++ {
							in.Slice(ctx.SlotOf(r)*8, 8).PutFloat64(0, float64(700+r))
						}
					}
					if err := s.Scatter(root); err != nil {
						return err
					}
					// Only ranks on the root's node see real data in
					// shared memory before the bridge... every rank
					// must see its own block after Scatter.
					if got := s.Mine().Float64At(0); got != float64(700+p.Rank()) {
						t.Errorf("rank %d block = %v", p.Rank(), got)
					}
					return nil
				})
			})
		}
	}
}

func TestHyReduce(t *testing.T) {
	for _, shape := range [][]int{{4}, {3, 3}, {2, 2, 2}} {
		for _, root := range []int{0, 2} {
			t.Run(fmt.Sprintf("%v/root%d", shape, root), func(t *testing.T) {
				n := 0
				for _, s := range shape {
					n += s
				}
				const elems = 5
				runWorld(t, shape, func(p *mpi.Proc) error {
					ctx, err := New(p.CommWorld())
					if err != nil {
						return err
					}
					r, err := ctx.NewReducer(elems, mpi.Float64)
					if err != nil {
						return err
					}
					mine := r.Mine()
					for i := 0; i < elems; i++ {
						mine.PutFloat64(i, float64(p.Rank()+i))
					}
					if err := r.Reduce(mpi.OpSum, root); err != nil {
						return err
					}
					rootNode := ctx.comp.GroupOfSlot(0, ctx.SlotOf(root))
					if ctx.MyNodeIdx() == rootNode {
						for i := 0; i < elems; i++ {
							want := float64(n*i + n*(n-1)/2)
							if got := r.Result().Float64At(i); got != want {
								t.Errorf("rank %d elem %d = %v, want %v", p.Rank(), i, got, want)
								return nil
							}
						}
					}
					return nil
				})
			})
		}
	}
}

func TestRootedValidation(t *testing.T) {
	runWorld(t, []int{2}, func(p *mpi.Proc) error {
		ctx, err := New(p.CommWorld())
		if err != nil {
			return err
		}
		if _, err := ctx.NewGatherer(-1); err == nil {
			t.Error("negative gather size accepted")
		}
		if _, err := ctx.NewScatterer(-1); err == nil {
			t.Error("negative scatter size accepted")
		}
		if _, err := ctx.NewReducer(-1, mpi.Float64); err == nil {
			t.Error("negative reduce count accepted")
		}
		g, err := ctx.NewGatherer(8)
		if err != nil {
			return err
		}
		if err := g.Gather(99); err == nil {
			t.Error("bad gather root accepted")
		}
		s, err := ctx.NewScatterer(8)
		if err != nil {
			return err
		}
		if err := s.Scatter(-1); err == nil {
			t.Error("bad scatter root accepted")
		}
		r, err := ctx.NewReducer(1, mpi.Float64)
		if err != nil {
			return err
		}
		if err := r.Reduce(mpi.OpSum, 5); err == nil {
			t.Error("bad reduce root accepted")
		}
		return nil
	})
}
