package coll

import (
	"fmt"

	"repro/internal/mpi"
)

// Displs returns the standard displacement vector for a count vector:
// displs[i] = sum(counts[:i]).
func Displs(counts []int) []int {
	d := make([]int, len(counts))
	off := 0
	for i, c := range counts {
		d[i] = off
		off += c
	}
	return d
}

// Total sums a count vector.
func Total(counts []int) int {
	t := 0
	for _, c := range counts {
		t += c
	}
	return t
}

// scale returns v with every element multiplied by k (block counts to
// byte counts).
func scale(v []int, k int) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}

func checkAllgathervArgs(c *mpi.Comm, recv mpi.Buf, counts []int) error {
	switch {
	case c == nil:
		return fmt.Errorf("coll: allgatherv on nil communicator")
	case len(counts) != c.Size():
		return fmt.Errorf("coll: allgatherv got %d counts for %d ranks", len(counts), c.Size())
	}
	for r, n := range counts {
		if n < 0 {
			return fmt.Errorf("coll: allgatherv count[%d] = %d", r, n)
		}
	}
	if recv.Len() < Total(counts) {
		return fmt.Errorf("coll: allgatherv recv buffer %dB < total %dB", recv.Len(), Total(counts))
	}
	return nil
}

// Allgatherv is the irregular allgather: rank r contributes counts[r]
// bytes. Algorithm selection mirrors how real libraries treat the v
// variant as a second-class citizen ([29], paper Fig. 8): the
// logarithmic path is used only for much smaller totals than
// MPI_Allgather's, every call pays a vector-walking setup, and every
// step pays a bookkeeping penalty.
//
// The caller's contribution must already sit at its displacement in recv
// (MPI_IN_PLACE semantics) — that is exactly how the paper's Fig. 4 uses
// MPI_Allgatherv on the shared buffer — unless send is non-empty, in
// which case it is copied there first.
func Allgatherv(c *mpi.Comm, send, recv mpi.Buf, counts []int) error {
	if err := checkAllgathervArgs(c, recv, counts); err != nil {
		return err
	}
	displs := Displs(counts)
	if send.Len() > 0 {
		c.Proc().CopyLocal(recv.Slice(displs[c.Rank()], counts[c.Rank()]), send, 1)
	}
	return AllgathervInPlace(c, recv, counts)
}

// AllgathervInPlace runs the irregular allgather assuming each rank's
// block is already placed at its displacement in recv. The algorithm
// is resolved by the selection engine; the v variant only registers
// the ring and (power-of-two) recursive-doubling exchanges, mirroring
// how real libraries under-tune it ([29]).
func AllgathervInPlace(c *mpi.Comm, recv mpi.Buf, counts []int) error {
	if err := checkAllgathervArgs(c, recv, counts); err != nil {
		return err
	}
	if c.Size() == 1 {
		return nil
	}
	return allgathervPlaced(c, blocks{buf: recv, counts: counts, displs: Displs(counts)}, Total(counts), true)
}

// AllgathervExplicit runs the allgatherv with caller-provided
// displacements (which need not be prefix sums — the multi-leader
// hierarchy scatters node slices through a strided layout). Each rank's
// block must already sit at displs[rank]. The layout is validated on
// every member before a byte moves, like the standard form's.
func AllgathervExplicit(c *mpi.Comm, recv mpi.Buf, counts, displs []int) error {
	if c == nil {
		return fmt.Errorf("coll: allgatherv on nil communicator")
	}
	if len(counts) != c.Size() || len(displs) != c.Size() {
		return fmt.Errorf("coll: allgatherv got %d counts / %d displs for %d ranks",
			len(counts), len(displs), c.Size())
	}
	// When the displacements are an ordinary prefix layout the call is
	// equivalent to the standard in-place allgatherv and gets the same
	// engine-driven algorithm selection (including the logarithmic
	// small-message path). Genuinely strided layouts always ring.
	prefix, total := true, 0
	for r, n := range counts {
		switch {
		case n < 0:
			return fmt.Errorf("coll: allgatherv count[%d] = %d", r, n)
		case displs[r] < 0 || displs[r]+n > recv.Len():
			return fmt.Errorf("coll: allgatherv block %d [%d, %d) lies outside the %dB recv buffer",
				r, displs[r], displs[r]+n, recv.Len())
		}
		prefix = prefix && displs[r] == total
		total += n
	}
	if c.Size() == 1 {
		return nil
	}
	return allgathervPlaced(c, blocks{buf: recv, counts: counts, displs: displs}, total, prefix)
}

// allgathervPlaced charges the v family's per-call setup (walking the
// count/displacement vectors) and runs the exchange over validated,
// already-placed blocks: the selected algorithm, or the ring where only
// the ring can address the layout. Every step pays the family's
// bookkeeping penalty.
func allgathervPlaced(c *mpi.Comm, v blocks, total int, selected bool) error {
	p := c.Proc()
	tun := &p.Model().Tuning
	p.Elapse(tun.AllgathervSetup)
	exchange := exchangeFn(allgatherRing)
	if selected {
		var err error
		if exchange, err = dispatch[exchangeFn](c, CollAllgatherv, envFor(c, total, 0), true); err != nil {
			return err
		}
	}
	return exchange(c, v, family{name: "allgatherv", tag: tagAllgatherv, penalty: tun.AllgathervStepPenalty})
}
