package coll

import (
	"fmt"

	"repro/internal/mpi"
)

// Bcast broadcasts root's buffer to every rank. The algorithm is
// resolved by the selection engine; the default table policy selects
// by message size the way the profile's library would: binomial tree
// for short messages, scatter+ring-allgather for medium, and a chained
// pipeline for very large payloads.
func Bcast(c *mpi.Comm, buf mpi.Buf, root int) error {
	if err := checkBcastArgs(c, buf, root); err != nil {
		return err
	}
	run, err := dispatch[bcastFn](c, CollBcast, envFor(c, buf.Len(), 0), false)
	if err != nil {
		return err
	}
	return run(c, buf, root)
}

func checkBcastArgs(c *mpi.Comm, buf mpi.Buf, root int) error {
	switch {
	case c == nil:
		return fmt.Errorf("coll: bcast on nil communicator")
	case root < 0 || root >= c.Size():
		return fmt.Errorf("coll: bcast root %d out of range (size %d)", root, c.Size())
	}
	return nil
}

// BcastBinomial is the classic binomial tree: log2(n) rounds, each
// holder forwarding the whole message to one new rank per round.
func BcastBinomial(c *mpi.Comm, buf mpi.Buf, root int) error {
	if err := checkBcastArgs(c, buf, root); err != nil {
		return err
	}
	n := c.Size()
	if n == 1 {
		return nil
	}
	rel := (c.Rank() - root + n) % n

	// Receive once from the parent...
	mask := binomialParent(rel, n)
	if rel != 0 {
		parent := (rel - mask + root) % n
		if _, err := c.Recv(buf, parent, tagBcast); err != nil {
			return fmt.Errorf("coll: bcast binomial recv: %w", err)
		}
	}
	// ...then forward to children under decreasing masks.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < n {
			child := (rel + mask + root) % n
			if err := c.Send(buf, child, tagBcast); err != nil {
				return fmt.Errorf("coll: bcast binomial send: %w", err)
			}
		}
	}
	return nil
}

// BcastScatterAllgather is the van de Geijn algorithm MPICH uses for
// medium and large messages: binomial-scatter the payload over the
// ranks, then ring-allgather the pieces back together. Bandwidth is
// near-optimal at the price of O(n) latency in the allgather phase.
func BcastScatterAllgather(c *mpi.Comm, buf mpi.Buf, root int) error {
	if err := checkBcastArgs(c, buf, root); err != nil {
		return err
	}
	n := c.Size()
	if n == 1 {
		return nil
	}
	total := buf.Len()
	if total == 0 {
		// No payload to scatter; the zero-byte tree still broadcasts.
		return BcastBinomial(c, buf, root)
	}
	// The payload is cut into n near-equal pieces laid out in
	// relative-rank order: relative rank i owns bytes
	// [i*per, min((i+1)*per, total)), so payloads smaller than n*per end
	// in short or empty pieces.
	per := (total + n - 1) / n
	rel := (c.Rank() - root + n) % n

	// Phase 1: binomial scatter. Every rank ends up holding its own
	// relative piece; interior tree nodes transiently hold their
	// subtree's range [rel*per, rel*per+curr).
	curr := total
	mask := binomialParent(rel, n)
	if rel != 0 {
		src := (rel - mask + root) % n
		curr = min(max(total-rel*per, 0), mask*per)
		if curr > 0 {
			if _, err := c.Recv(buf.Slice(rel*per, curr), src, tagBcast); err != nil {
				return fmt.Errorf("coll: bcast scatter recv: %w", err)
			}
		}
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < n {
			sendSize := curr - mask*per
			if sendSize > 0 {
				dst := (rel + mask + root) % n
				off := (rel + mask) * per
				if err := c.Send(buf.Slice(off, sendSize), dst, tagBcast); err != nil {
					return fmt.Errorf("coll: bcast scatter send: %w", err)
				}
				curr -= sendSize
			}
		}
	}

	// Phase 2: ring allgather of the pieces in relative-rank space.
	return ringExchange(c, blocks{buf: buf, per: per}, rel, family{name: "bcast allgather", tag: tagBcast})
}

// BcastPipelined is a chained pipeline for very large messages: the
// message is cut into chunks that flow down the rank chain, so total
// cost approaches (chunks + n) single-chunk hops instead of log2(n)
// full-message hops. This is the large-message path the paper's
// conclusion points at ([30]).
func BcastPipelined(c *mpi.Comm, buf mpi.Buf, root, chunk int) error {
	if err := checkBcastArgs(c, buf, root); err != nil {
		return err
	}
	if chunk <= 0 {
		chunk = 64 << 10
	}
	n := c.Size()
	if n == 1 || buf.Len() == 0 {
		return nil
	}
	rel := (c.Rank() - root + n) % n
	prev := (c.Rank() - 1 + n) % n
	next := (c.Rank() + 1) % n
	isTail := rel == n-1

	for off := 0; off < buf.Len(); off += chunk {
		sz := chunk
		if off+sz > buf.Len() {
			sz = buf.Len() - off
		}
		piece := buf.Slice(off, sz)
		if rel != 0 {
			if _, err := c.Recv(piece, prev, tagBcast); err != nil {
				return fmt.Errorf("coll: bcast pipeline recv: %w", err)
			}
		}
		if !isTail {
			if err := c.Send(piece, next, tagBcast); err != nil {
				return fmt.Errorf("coll: bcast pipeline send: %w", err)
			}
		}
	}
	return nil
}
