package hybrid

import (
	"fmt"
	"slices"

	"repro/internal/mpi"
)

// Tags of the leaders' point-to-point bridge phases.
const tagHyAlltoall = 1<<25 + 40

// Alltoaller extends the paper's single-copy-per-node principle to the
// complete exchange (MPI_Alltoall — called out in the paper's
// conclusion as "not a scalable communication pattern" and the natural
// next target). Both the send and the receive matrices live in one
// shared window per node:
//
//   - every rank writes its send row (one block per destination) into
//     the node's shared send segment;
//   - on-node blocks move by direct shared-memory copies, done in
//     parallel by their *receivers*;
//   - node leaders exchange packed inter-node submatrices pairwise;
//   - children read their received row from the shared recv segment.
type Alltoaller struct {
	collective
	per  int // bytes per (src, dst) block
	size int // comm size

	send mpi.Buf // node send matrix: nodeSize x size x per
	recv mpi.Buf // node recv matrix: nodeSize x size x per
	// Leader staging: a pack half and an unpack half, each sized for
	// the largest inter-node submatrix.
	stage mpi.Buf
}

// NewAlltoaller prepares the shared segments (one-off).
func (c *Ctx) NewAlltoaller(per int) (*Alltoaller, error) {
	if per < 0 {
		return nil, fmt.Errorf("hybrid: negative block size %d", per)
	}
	a, _, _ := mpi.SetupSlab[Alltoaller](c.comm(), nil)
	*a = Alltoaller{collective: collective{c}, per: per, size: c.comm().Size()}
	matrix := c.node().Size() * a.size * per
	var err error
	if a.send, err = c.segment(matrix); err != nil {
		return nil, err
	}
	if a.recv, err = c.segment(matrix); err != nil {
		return nil, err
	}
	if c.IsLeader() {
		a.stage = c.comm().Proc().World().NewBuf(2 * c.node().Size() * slices.Max(c.NodeSizes()) * per)
	}
	return a, nil
}

// MineSend returns this rank's send row: one `per`-byte block for every
// destination comm rank, in slot order (rank order under SMP
// placement). Write it before calling Alltoall.
func (a *Alltoaller) MineSend() mpi.Buf {
	row := a.size * a.per
	return a.send.Slice(a.ctx.node().Rank()*row, row)
}

// MineRecv returns this rank's receive row: the block from every source
// comm rank, in slot order (valid after Alltoall).
func (a *Alltoaller) MineRecv() mpi.Buf {
	row := a.size * a.per
	return a.recv.Slice(a.ctx.node().Rank()*row, row)
}

// sendBlock returns the block source local rank j addressed to slot s.
func (a *Alltoaller) sendBlock(localSrc, slot int) mpi.Buf {
	return a.send.Slice(localSrc*a.size*a.per+slot*a.per, a.per)
}

// recvBlock returns receive-row block of local rank j from slot s.
func (a *Alltoaller) recvBlock(localDst, slot int) mpi.Buf {
	return a.recv.Slice(localDst*a.size*a.per+slot*a.per, a.per)
}

// Alltoall runs the timed exchange. Its on-node pull has every rank
// read every peer's send row, so the arrival must make all on-node
// writes visible to all on-node ranks, not just to the leader.
func (a *Alltoaller) Alltoall() error {
	return a.ctx.epoch("alltoall", toAll, 0, false, a.exchange)
}

// exchange moves the blocks: on the node by load/store, between nodes
// through the leaders.
func (a *Alltoaller) exchange(bridge *mpi.Comm, _ int) error {
	c := a.ctx
	p := c.comm().Proc()

	// Intra-node blocks: every rank pulls its own column from the
	// node's send matrix — ppn parallel copiers.
	myFirst, ppn := c.nodeSpan(c.MyNodeIdx())
	mySlot, myRow := c.SlotOf(c.comm().Rank()), c.node().Rank()
	for j := 0; j < ppn; j++ {
		mpi.CopyData(a.recvBlock(myRow, myFirst+j), a.sendBlock(j, mySlot))
	}
	p.Elapse(p.Model().CopyCost(ppn*a.per, ppn))
	if bridge == nil {
		return nil
	}

	// Inter-node blocks: leaders exchange packed submatrices pairwise
	// over the bridge. For each step, pack my node's blocks addressed
	// to the partner node, exchange, and scatter the received
	// submatrix into the recv segment.
	n, me := bridge.Size(), bridge.Rank()
	pack, unpack := a.stage.Slice(0, a.stage.Len()/2), a.stage.Slice(a.stage.Len()/2, a.stage.Len()/2)
	for step := 1; step < n; step++ {
		dst := (me + step) % n
		src := (me - step + n) % n
		dstFirst, dstPPN := c.nodeSpan(dst)
		srcFirst, srcPPN := c.nodeSpan(src)

		// Pack: rows = my node's local ranks, cols = partner's
		// slots.
		packBytes := ppn * dstPPN * a.per
		for j := 0; j < ppn; j++ {
			for t := 0; t < dstPPN; t++ {
				off := (j*dstPPN + t) * a.per
				mpi.CopyData(pack.Slice(off, a.per), a.sendBlock(j, dstFirst+t))
			}
		}
		p.Elapse(p.Model().CopyCost(packBytes, 1))

		recvBytes := srcPPN * ppn * a.per
		if _, err := bridge.Sendrecv(
			pack.Slice(0, packBytes), dst, tagHyAlltoall,
			unpack.Slice(0, recvBytes), src, tagHyAlltoall,
		); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}

		// Unpack: the partner packed [its local ranks][my slots];
		// scatter into my node's recv rows.
		for j := 0; j < srcPPN; j++ {
			for t := 0; t < ppn; t++ {
				off := (j*ppn + t) * a.per
				mpi.CopyData(a.recvBlock(t, srcFirst+j), unpack.Slice(off, a.per))
			}
		}
		p.Elapse(p.Model().CopyCost(recvBytes, 1))
	}
	return nil
}
