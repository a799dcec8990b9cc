package mpi

import (
	"strings"
	"testing"
	"unsafe"
)

// TestWinHandleSize pins a rank's Win at two words, its communicator
// and the shared plan: anything else a rank keeps is shared state
// copied back into every element of the setup slab.
func TestWinHandleSize(t *testing.T) {
	if got, want := unsafe.Sizeof(Win{}), 2*unsafe.Sizeof(uintptr(0)); got != want {
		t.Errorf("Win is %d bytes, want %d (a communicator and the shared plan)", got, want)
	}
}

// winView locates a view of a real-data window: its offset into the
// node segment and its length.
func winView(w *Win, b Buf) [2]int { return [2]int{cap(w.Whole().b) - cap(b.b), b.Len()} }

// TestWinAllocateLeader checks the leader pattern's window directly:
// rank 0's view is the whole segment and every other member's an empty
// view at its end, the views WinAllocateShared gives when rank 0
// contributes the total and everyone else nothing; what rank 0 writes
// every member reads through Query(0); and members that pass a total
// other than the one the window was built with fail.
func TestWinAllocateLeader(t *testing.T) {
	const total = 5 * 8
	w := newTestWorld(t, 2, 4)
	err := w.Run(func(p *Proc) error {
		node, err := p.CommWorld().SplitTypeShared()
		if err != nil {
			return err
		}
		win, err := WinAllocateLeader(node, total)
		if err != nil {
			return err
		}
		mySize := 0
		if node.Rank() == 0 {
			mySize = total
		}
		ref, err := WinAllocateShared(node, mySize)
		if err != nil {
			return err
		}
		if win.Whole().Len() != total {
			t.Errorf("rank %d: whole segment %d bytes, want %d", p.Rank(), win.Whole().Len(), total)
		}
		for r := 0; r < node.Size(); r++ {
			want := [2]int{total, 0}
			if r == 0 {
				want = [2]int{0, total}
			}
			got := winView(win, win.Query(r))
			if got != want || got != winView(ref, ref.Query(r)) {
				t.Errorf("rank %d: Query(%d) at %v, want %v as WinAllocateShared's %v",
					p.Rank(), r, got, want, winView(ref, ref.Query(r)))
			}
		}
		if got, want := winView(win, win.Mine()), winView(win, win.Query(node.Rank())); got != want {
			t.Errorf("rank %d: Mine() at %v, want Query(%d)'s %v", p.Rank(), got, node.Rank(), want)
		}

		if node.Rank() == 0 {
			for i := 0; i < total/8; i++ {
				win.Query(0).PutFloat64(i, float64(100*p.Node()+i))
			}
		}
		if err := node.Barrier(); err != nil {
			return err
		}
		for i := 0; i < total/8; i++ {
			if got, want := win.Query(0).Float64At(i), float64(100*p.Node()+i); got != want {
				t.Errorf("rank %d: Query(0)[%d] = %v, want rank 0's %v", p.Rank(), i, got, want)
			}
		}

		// Divergent totals: rank 0 builds the window (the others wait
		// on the barrier first), and only the member whose total
		// differs from rank 0's fails.
		mine := total
		if node.Rank() == 1 {
			mine = total + 8
		}
		if node.Rank() == 0 {
			_, err = WinAllocateLeader(node, mine)
		}
		if err := node.Barrier(); err != nil {
			return err
		}
		if node.Rank() != 0 {
			_, err = WinAllocateLeader(node, mine)
		}
		if (err != nil) != (node.Rank() == 1) {
			t.Errorf("rank %d (total %d): error %v, want one on node rank 1 only", p.Rank(), mine, err)
		} else if err != nil && !strings.Contains(err.Error(), "diverge") {
			t.Errorf("rank %d: error %q does not name the divergence", p.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
