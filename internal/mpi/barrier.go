package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// Reserved tag space for runtime-internal collective traffic. User tags
// below tagInternalBase never collide with these.
const (
	tagInternalBase = 1 << 24
	tagBarrier      = tagInternalBase + 0
	tagFlag         = tagInternalBase + 1 // hybrid p2p-flag sync
)

// Barrier blocks until every rank of the communicator has entered.
//
// Communicators whose members all live on one node take the
// shared-memory fast path real MPI libraries use: a flag-based
// dissemination barrier costing ~log2(n) cache-line exchanges, far
// cheaper than message passing. This is the barrier the paper's hybrid
// collectives lean on (their sharedmemComm barriers are always
// node-local), and its cost is what keeps Hy_Allgather flat in Fig. 7
// and lets Hy_SUMMA reach ~5x on one node in Fig. 11a.
//
// Multi-node communicators run the message-based dissemination
// algorithm: ceil(log2 n) rounds of zero-byte exchanges.
func (c *Comm) Barrier() error {
	n := c.Size()
	if n <= 1 {
		return nil
	}
	if c.cx.oneNode {
		c.shmBarrier()
		return nil
	}
	empty := Sized(0)
	for k := 1; k < n; k <<= 1 {
		dst := (c.rank + k) % n
		src := (c.rank - k + n) % n
		if _, err := c.Sendrecv(empty, dst, tagBarrier, empty, src, tagBarrier); err != nil {
			return fmt.Errorf("mpi: barrier round %d: %w", k, err)
		}
	}
	return nil
}

// shmBarrier models the flag-based dissemination barrier: every rank
// leaves once the last rank has arrived, paying ceil(log2 n) rounds of
// two cache-line operations each. Clocks are fused through the untimed
// rendezvous; the timed cost is charged explicitly, so the result stays
// deterministic.
func (c *Comm) shmBarrier() {
	p := c.p
	latest := c.FuseClocks(p.clock)
	rounds := 0
	for k := 1; k < c.Size(); k <<= 1 {
		rounds++
	}
	p.syncTo(latest)
	p.advance(sim.Time(rounds) * 2 * p.world.model.MemAlpha)
}
