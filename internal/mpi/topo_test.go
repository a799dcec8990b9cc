package mpi

import (
	"fmt"
	"testing"
)

func TestCartCreateIdentityWithoutReorder(t *testing.T) {
	w := newTestWorld(t, 2, 6)
	err := w.Run(func(p *Proc) error {
		cart, err := p.CommWorld().CartCreate([]int{3, 4}, []bool{true, false}, false)
		if err != nil {
			return err
		}
		if cart == nil {
			t.Errorf("rank %d excluded from a full-size grid", p.Rank())
			return nil
		}
		// reorder=false keeps the parent order: grid rank r is parent
		// rank r, and row-major coordinates follow.
		if cart.Rank() != p.Rank() {
			t.Errorf("rank %d: cart rank %d without reorder", p.Rank(), cart.Rank())
		}
		coords, err := cart.CartCoords(cart.Rank())
		if err != nil {
			return err
		}
		if want0, want1 := p.Rank()/4, p.Rank()%4; coords[0] != want0 || coords[1] != want1 {
			t.Errorf("rank %d: coords %v, want [%d %d]", p.Rank(), coords, want0, want1)
		}
		back, err := cart.CartRank(coords)
		if err != nil {
			return err
		}
		if back != cart.Rank() {
			t.Errorf("rank %d: CartRank(CartCoords) = %d", p.Rank(), back)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartCreateRejectsTooManyDims(t *testing.T) {
	w := newTestWorld(t, 1, 2)
	err := w.Run(func(p *Proc) error {
		// MaxCartDims+1 one-wide dims: volume 1, legal in MPI terms,
		// but the direction tags would alias across the schedule tag
		// stride — must be rejected loudly.
		dims := make([]int, MaxCartDims+1)
		periods := make([]bool, len(dims))
		for i := range dims {
			dims[i] = 1
		}
		if _, err := p.CommWorld().CartCreate(dims, periods, false); err == nil {
			t.Errorf("rank %d: %d-dim grid accepted", p.Rank(), len(dims))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartCreateExcludesRanksBeyondVolume(t *testing.T) {
	w := newTestWorld(t, 1, 6)
	err := w.Run(func(p *Proc) error {
		cart, err := p.CommWorld().CartCreate([]int{4}, []bool{false}, false)
		if err != nil {
			return err
		}
		if p.Rank() < 4 && cart == nil {
			t.Errorf("rank %d inside the grid got nil", p.Rank())
		}
		if p.Rank() >= 4 && cart != nil {
			t.Errorf("rank %d beyond the grid got a communicator", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartShiftPeriodicWraparound(t *testing.T) {
	w := newTestWorld(t, 2, 6)
	err := w.Run(func(p *Proc) error {
		world := p.CommWorld()
		n := p.Size()

		ring, err := world.CartCreate([]int{n}, []bool{true}, false)
		if err != nil {
			return err
		}
		src, dst, err := ring.CartShift(0, 1)
		if err != nil {
			return err
		}
		if want := (p.Rank() - 1 + n) % n; src != want {
			t.Errorf("rank %d: periodic src %d, want %d", p.Rank(), src, want)
		}
		if want := (p.Rank() + 1) % n; dst != want {
			t.Errorf("rank %d: periodic dst %d, want %d", p.Rank(), dst, want)
		}

		line, err := world.CartCreate([]int{n}, []bool{false}, false)
		if err != nil {
			return err
		}
		src, dst, err = line.CartShift(0, 1)
		if err != nil {
			return err
		}
		if p.Rank() == 0 && src != ProcNull {
			t.Errorf("rank 0: non-periodic src %d, want ProcNull", src)
		}
		if p.Rank() == n-1 && dst != ProcNull {
			t.Errorf("last rank: non-periodic dst %d, want ProcNull", dst)
		}
		if p.Rank() > 0 && src != p.Rank()-1 {
			t.Errorf("rank %d: non-periodic src %d", p.Rank(), src)
		}

		// A displacement beyond the boundary is ProcNull too; a wrapped
		// one lands anywhere on the ring.
		src, dst, err = line.CartShift(0, n)
		if err != nil {
			return err
		}
		if src != ProcNull || dst != ProcNull {
			t.Errorf("rank %d: shift by %d on a line gave (%d, %d)", p.Rank(), n, src, dst)
		}
		src, dst, err = ring.CartShift(0, n)
		if err != nil {
			return err
		}
		if src != p.Rank() || dst != p.Rank() {
			t.Errorf("rank %d: full-circle shift gave (%d, %d)", p.Rank(), src, dst)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartShiftOneWideDims(t *testing.T) {
	w := newTestWorld(t, 1, 4)
	err := w.Run(func(p *Proc) error {
		// dims [1,4]: dimension 0 is 1 wide. Periodic, every shift
		// along it is a self-neighbor; non-periodic, ProcNull.
		wrap, err := p.CommWorld().CartCreate([]int{1, 4}, []bool{true, true}, false)
		if err != nil {
			return err
		}
		src, dst, err := wrap.CartShift(0, 1)
		if err != nil {
			return err
		}
		if src != wrap.Rank() || dst != wrap.Rank() {
			t.Errorf("rank %d: 1-wide periodic shift gave (%d, %d), want self", p.Rank(), src, dst)
		}
		open, err := p.CommWorld().CartCreate([]int{1, 4}, []bool{false, true}, false)
		if err != nil {
			return err
		}
		src, dst, err = open.CartShift(0, 1)
		if err != nil {
			return err
		}
		if src != ProcNull || dst != ProcNull {
			t.Errorf("rank %d: 1-wide open shift gave (%d, %d), want ProcNull", p.Rank(), src, dst)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartRankWrapsOnlyPeriodicDims(t *testing.T) {
	w := newTestWorld(t, 1, 6)
	err := w.Run(func(p *Proc) error {
		cart, err := p.CommWorld().CartCreate([]int{2, 3}, []bool{true, false}, false)
		if err != nil {
			return err
		}
		r, err := cart.CartRank([]int{-1, 2}) // -1 wraps to 1 on the periodic dim
		if err != nil {
			return err
		}
		if r != 1*3+2 {
			t.Errorf("wrapped CartRank = %d, want 5", r)
		}
		if _, err := cart.CartRank([]int{0, 3}); err == nil {
			t.Error("out-of-range coordinate on a non-periodic dim accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartNeighborhoodOrderAndTags(t *testing.T) {
	w := newTestWorld(t, 1, 6)
	err := w.Run(func(p *Proc) error {
		cart, err := p.CommWorld().CartCreate([]int{2, 3}, []bool{false, true}, false)
		if err != nil {
			return err
		}
		in, out, ok := cart.Neighborhood()
		if !ok {
			t.Fatalf("rank %d: no neighborhood on a cart comm", p.Rank())
		}
		if len(in) != 4 || len(out) != 4 {
			t.Fatalf("rank %d: neighborhood sizes %d/%d, want 4/4", p.Rank(), len(in), len(out))
		}
		// Slot order per dim: negative side then positive side; the
		// peers must agree with CartShift.
		for d := 0; d < 2; d++ {
			src, dst, err := cart.CartShift(d, 1)
			if err != nil {
				return err
			}
			if in[2*d].Peer != src || out[2*d].Peer != src {
				t.Errorf("rank %d dim %d: negative slot peer %d/%d, want %d",
					p.Rank(), d, in[2*d].Peer, out[2*d].Peer, src)
			}
			if in[2*d+1].Peer != dst || out[2*d+1].Peer != dst {
				t.Errorf("rank %d dim %d: positive slot peer %d/%d, want %d",
					p.Rank(), d, in[2*d+1].Peer, out[2*d+1].Peer, dst)
			}
			// Direction-of-travel tags: a block sent negative (tag 2d)
			// arrives at its receiver's positive-side slot (tag 2d).
			if out[2*d].Tag != 2*d || in[2*d+1].Tag != 2*d {
				t.Errorf("rank %d dim %d: travel-negative tags %d/%d, want %d",
					p.Rank(), d, out[2*d].Tag, in[2*d+1].Tag, 2*d)
			}
			if out[2*d+1].Tag != 2*d+1 || in[2*d].Tag != 2*d+1 {
				t.Errorf("rank %d dim %d: travel-positive tags %d/%d, want %d",
					p.Rank(), d, out[2*d+1].Tag, in[2*d].Tag, 2*d+1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartReorderMapsBricksOntoNodes(t *testing.T) {
	w := newTestWorld(t, 4, 4)
	nodeOf := make([]int, 16) // grid rank -> node
	coords := make([][]int, 16)
	err := w.Run(func(p *Proc) error {
		cart, err := p.CommWorld().CartCreate([]int{4, 4}, []bool{true, true}, true)
		if err != nil {
			return err
		}
		c, err := cart.CartCoords(cart.Rank())
		if err != nil {
			return err
		}
		nodeOf[cart.Rank()] = p.Node()
		coords[cart.Rank()] = c
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every node's four members must form a 2x2 brick: their
	// coordinates span extents of exactly 2 in both dims.
	byNode := map[int][][]int{}
	for g := range coords {
		byNode[nodeOf[g]] = append(byNode[nodeOf[g]], coords[g])
	}
	if len(byNode) != 4 {
		t.Fatalf("grid spread over %d nodes, want 4", len(byNode))
	}
	for node, cs := range byNode {
		if len(cs) != 4 {
			t.Fatalf("node %d holds %d grid ranks, want 4", node, len(cs))
		}
		for d := 0; d < 2; d++ {
			lo, hi := cs[0][d], cs[0][d]
			for _, c := range cs {
				if c[d] < lo {
					lo = c[d]
				}
				if c[d] > hi {
					hi = c[d]
				}
			}
			if hi-lo != 1 {
				t.Errorf("node %d: dim %d spans [%d,%d], not a 2-wide brick", node, d, lo, hi)
			}
		}
	}
}

func TestCartReorderFallsBackToIdentity(t *testing.T) {
	// 5 is prime and does not brick-decompose a 2x6 grid's nodes of 5
	// — but here the simpler failure: a 12-rank world, 3-wide grid of
	// volume 9 whose runs over the first 9 ranks are 6 and 3 (unequal)
	// must keep the identity order.
	w := newTestWorld(t, 2, 6)
	err := w.Run(func(p *Proc) error {
		cart, err := p.CommWorld().CartCreate([]int{3, 3}, []bool{true, true}, true)
		if err != nil {
			return err
		}
		if p.Rank() >= 9 {
			if cart != nil {
				t.Errorf("rank %d beyond the grid got a communicator", p.Rank())
			}
			return nil
		}
		if cart.Rank() != p.Rank() {
			t.Errorf("rank %d: fallback reorder moved it to %d", p.Rank(), cart.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The coordinate queries of MPI_Cart_coords, _rank and _shift. No
// workload asks a grid for coordinates (the neighborhood lists are the
// whole interface), so they live here, where the tests use them to check
// cartNeighbor and the reorder permutation from outside.

// CartCoords translates a comm rank to grid coordinates.
func (c *Comm) CartCoords(rank int) ([]int, error) {
	if c.ptopo == nil || c.ptopo.cart == nil {
		return nil, fmt.Errorf("mpi: CartCoords on a communicator without Cartesian topology")
	}
	if err := c.validRank(rank, false); err != nil {
		return nil, err
	}
	info := c.ptopo.cart
	coords := make([]int, len(info.dims))
	rowMajorCoords(rank, info.dims, coords)
	return coords, nil
}

// CartRank translates grid coordinates to a comm rank (MPI_Cart_rank).
// Coordinates on periodic dimensions wrap; out-of-range coordinates on
// non-periodic dimensions are an error.
func (c *Comm) CartRank(coords []int) (int, error) {
	if c.ptopo == nil || c.ptopo.cart == nil {
		return 0, fmt.Errorf("mpi: CartRank on a communicator without Cartesian topology")
	}
	info := c.ptopo.cart
	if len(coords) != len(info.dims) {
		return 0, fmt.Errorf("mpi: CartRank got %d coordinates for a %d-dim grid", len(coords), len(info.dims))
	}
	wrapped := make([]int, len(coords))
	for d, x := range coords {
		n := info.dims[d]
		if info.periods[d] {
			x = ((x % n) + n) % n
		} else if x < 0 || x >= n {
			return 0, fmt.Errorf("mpi: CartRank coordinate %d out of range on non-periodic dim %d (extent %d)", x, d, n)
		}
		wrapped[d] = x
	}
	return rowMajorRank(wrapped, info.dims), nil
}

// CartShift reports the calling rank's neighbors displaced by ±disp
// along dim (MPI_Cart_shift): src is the rank disp steps in the
// negative direction (the one whose data arrives when everybody sends
// positive), dst the rank disp steps positive. Past a non-periodic
// boundary the respective value is ProcNull.
func (c *Comm) CartShift(dim, disp int) (src, dst int, err error) {
	if c.ptopo == nil || c.ptopo.cart == nil {
		return 0, 0, fmt.Errorf("mpi: CartShift on a communicator without Cartesian topology")
	}
	info := c.ptopo.cart
	if dim < 0 || dim >= len(info.dims) {
		return 0, 0, fmt.Errorf("mpi: CartShift dimension %d out of range on a %d-dim grid", dim, len(info.dims))
	}
	coords := make([]int, len(info.dims))
	rowMajorCoords(c.rank, info.dims, coords)
	return cartNeighbor(info, coords, dim, -disp), cartNeighbor(info, coords, dim, +disp), nil
}
