package mpi

import "repro/internal/sim"

// Proc is one MPI rank: a goroutine-local handle carrying the rank's
// virtual clock. A Proc's clock is only ever touched from its own
// goroutine; cross-rank time flows exclusively through message and
// coordination records, which keeps the simulation deterministic.
type Proc struct {
	world *World
	rank  int
	clock sim.Time

	// noiseOps counts this rank's noise draws, forming the opIndex
	// coordinate of the counter-based PRNG. It advances only at the
	// rank's own operation boundaries (program order), so the draw
	// sequence is identical on both engines and across warm reruns.
	noiseOps uint64

	cw Comm // the MPI_COMM_WORLD handle, set up on first use (see CommWorld)
}

// Rank returns the global rank (MPI_COMM_WORLD rank).
func (p *Proc) Rank() int { return p.rank }

// Size returns the global number of ranks.
func (p *Proc) Size() int { return p.world.Size() }

// Node returns the node index hosting this rank.
func (p *Proc) Node() int { return p.world.topo.NodeOf(p.rank) }

// World returns the owning world.
func (p *Proc) World() *World { return p.world }

// Model returns the machine cost model.
func (p *Proc) Model() *sim.CostModel { return p.world.model }

// Clock returns the rank's current virtual time.
func (p *Proc) Clock() sim.Time { return p.clock }

// advance moves the clock forward by d (never backward).
func (p *Proc) advance(d sim.Time) {
	if d > 0 {
		p.clock += d
	}
}

// syncTo pulls the clock up to at least t.
func (p *Proc) syncTo(t sim.Time) {
	if t > p.clock {
		p.clock = t
	}
}

// Compute charges virtual CPU time for the given flop count. The
// applications use it so that communication/computation ratios (and thus
// the paper's Fig. 11/12 ratios) are modeled consistently across scales.
func (p *Proc) Compute(flops float64) {
	p.maybeFail()
	d := p.world.model.ComputeCost(flops)
	p.advance(p.perturb(d))
	p.trace("compute", 0, "")
}

// Elapse advances the clock by an explicit duration (for modeled costs
// that are not flop-shaped).
func (p *Proc) Elapse(d sim.Time) {
	p.maybeFail()
	p.advance(p.perturb(d))
}

// AwaitTime blocks virtually until t: the clock jumps to t if it is
// still behind (no-op otherwise). Synchronization primitives built on
// shared flags use it to model "spin until the flag shows epoch k".
func (p *Proc) AwaitTime(t sim.Time) { p.syncTo(t) }

// CopyLocal copies src into dst as a local memory operation, charging
// copy cost under the stated on-node concurrency (how many ranks of this
// node are known by the calling algorithm to copy at the same moment).
func (p *Proc) CopyLocal(dst, src Buf, concurrent int) {
	n := CopyData(dst, src)
	p.advance(p.world.model.CopyCost(n, concurrent))
	p.trace("copy", n, "")
}

// TouchAll charges the cost of reading n bytes from the shared segment
// (children "accessing the updated buffer" in the paper's Figs. 4/6 read
// for free through load/store; reading is charged only where an
// experiment's compute phase consumes the data).
func (p *Proc) TouchAll(n, concurrent int) {
	p.advance(p.world.model.CopyCost(n, concurrent))
	p.trace("touch", n, "")
}

// trace records an event if tracing is enabled.
func (p *Proc) trace(kind string, bytes int, note string) {
	if p.world.tracer.Enabled() {
		p.world.tracer.Record(sim.Event{At: p.clock, Rank: p.rank, Kind: kind, Bytes: bytes, Note: note})
	}
}
