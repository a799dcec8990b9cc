package coll

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// gatherBinomialScratch is GatherBinomial with every range staged in a
// scratch buffer, leaves and root 0 included: the form the in-place
// staging must match clock for clock.
func gatherBinomialScratch(c *mpi.Comm, send, recv mpi.Buf, per, root int) error {
	n := c.Size()
	p := c.Proc()
	if n == 1 {
		p.CopyLocal(recv.Slice(root*per, per), send.Slice(0, per), 1)
		return nil
	}
	rel := (c.Rank() - root + n) % n
	tmp := p.World().NewBuf(subtreeSpan(rel, n) * per)
	p.CopyLocal(tmp.Slice(0, per), send.Slice(0, per), 1)
	have := 1
	up := binomialParent(rel, n)
	for mask := 1; mask < up; mask <<= 1 {
		if childRel := rel + mask; childRel < n {
			cnt := min(subtreeSpan(childRel, n), mask)
			if _, err := c.Recv(tmp.Slice(have*per, cnt*per), (childRel+root)%n, tagGather); err != nil {
				return err
			}
			have += cnt
		}
	}
	if rel != 0 {
		return c.Send(tmp.Slice(0, have*per), (rel-up+root)%n, tagGather)
	}
	for i := 0; i < n; i++ {
		p.CopyLocal(recv.Slice(((i+root)%n)*per, per), tmp.Slice(i*per, per), 1)
	}
	return nil
}

// gatherRun is what one gather on a fresh real-data world leaves: the
// root's receive bytes and every rank's clock.
type gatherRun struct {
	recv   []byte
	clocks []sim.Time
}

// runGather gathers rank-tagged blocks of elems doubles at root on n
// ranks spread over two nodes. With alias the root's send block is its
// own block of recv.
func runGather(t *testing.T, gather gatherFn, n, root, elems int, alias bool) gatherRun {
	t.Helper()
	shape := []int{n}
	if n > 1 {
		shape = []int{(n + 1) / 2, n / 2}
	}
	per := 8 * elems
	out := gatherRun{clocks: make([]sim.Time, n)}
	runWorld(t, sim.HazelHenCray(), shape, func(p *mpi.Proc) error {
		c := p.CommWorld()
		send, recv := fill(p.Rank(), elems), mpi.Buf{}
		if p.Rank() == root {
			recv = mpi.Bytes(make([]byte, n*per))
			if alias {
				send = recv.Slice(root*per, per)
				mpi.CopyData(send, fill(root, elems))
			}
			out.recv = recv.Raw()
		}
		if err := gather(c, send, recv, per, root); err != nil {
			return err
		}
		out.clocks[p.Rank()] = p.Clock()
		return nil
	}).Close()
	return out
}

// TestGatherBinomialStagesInPlace holds GatherBinomial's in-place
// staging (a leaf sends from its send block, root 0 receives into recv)
// to the gathered bytes of GatherLinear and the per-rank clocks of
// staging every range in scratch, on sizes with full, ragged and single
// subtrees, at root 0, 1 and n-1, and at root 0 with send aliasing
// recv's block 0. Blocks of 5 doubles travel eagerly, of 2,048 by
// rendezvous.
func TestGatherBinomialStagesInPlace(t *testing.T) {
	for _, elems := range []int{5, 2048} {
		for _, n := range []int{1, 2, 3, 5, 8, 16, 17} {
			for _, root := range slices.Compact([]int{0, min(1, n-1), n - 1}) {
				for _, alias := range []bool{false, true} {
					if alias && root != 0 {
						continue
					}
					t.Run(fmt.Sprintf("elems%d/n%d/root%d/alias=%v", elems, n, root, alias), func(t *testing.T) {
						want := runGather(t, GatherLinear, n, root, elems, false)
						checkGathered(t, "linear", mpi.Bytes(want.recv), n, elems)
						scratch := runGather(t, gatherBinomialScratch, n, root, elems, alias)
						got := runGather(t, GatherBinomial, n, root, elems, alias)
						if !bytes.Equal(got.recv, want.recv) {
							t.Errorf("binomial gathers bytes that differ from linear's")
						}
						if !slices.Equal(got.clocks, scratch.clocks) {
							t.Errorf("clocks %v, staged in scratch %v", got.clocks, scratch.clocks)
						}
					})
				}
			}
		}
	}
}

// TestGatherBinomialScratchBytes pins what a warm real-data
// GatherBinomial on 16 ranks allocates: the scratch ranges of the
// interior ranks, and at a root other than 0 the root's n blocks too;
// nothing for a leaf or for root 0. Blocks are 64 KiB, beyond the eager
// limit, so no message is snapshotted.
func TestGatherBinomialScratchBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	const n, per = 16, 64 << 10
	w, err := mpi.NewWorld(sim.HazelHenCray(), sim.MustUniform(2, n/2), mpi.WithRealData())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sends := make([]mpi.Buf, n)
	for r := range sends {
		sends[r] = mpi.Bytes(make([]byte, per))
	}
	recv := mpi.Bytes(make([]byte, n*per))
	for _, root := range []int{0, 1} {
		want := 0
		for r := 0; r < n; r++ {
			rel := (r - root + n) % n
			if span := subtreeSpan(rel, n); span > 1 && (rel != 0 || root != 0) {
				want += span * per
			}
		}
		run := func() {
			err := w.Run(func(p *mpi.Proc) error {
				return GatherBinomial(p.CommWorld(), sends[p.Rank()], recv, per, root)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		run()
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		got := int(after.TotalAlloc-before.TotalAlloc) / runs
		if got < want || got >= want+per/8 {
			t.Errorf("root %d: %d bytes per gather, want the scratch ranges' %d (%d blocks of %d)", root, got, want, want/per, per)
		}
	}
}
