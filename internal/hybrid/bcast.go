package hybrid

import (
	"fmt"

	"repro/internal/coll"
	"repro/internal/mpi"
)

// Bcaster is the hybrid MPI+MPI broadcast of the paper's Fig. 5/6: one
// shared segment per node holds the broadcast payload; the root writes
// it, leaders broadcast among themselves on the bridge, children just
// synchronize and read the shared copy.
type Bcaster struct {
	collective
	buf mpi.Buf
}

// NewBcaster allocates the per-node shared broadcast buffer of `size`
// bytes (one-off).
func (c *Ctx) NewBcaster(size int) (*Bcaster, error) {
	if size < 0 {
		return nil, fmt.Errorf("hybrid: negative bcast size %d", size)
	}
	b, _, _ := mpi.SetupSlab[Bcaster](c.comm(), nil)
	b.ctx = c
	var err error
	if b.buf, err = c.segment(size); err != nil {
		return nil, err
	}
	return b, nil
}

// Buffer returns the node's shared broadcast buffer. The root fills it
// before Bcast (Fig. 6 lines 1-2); every rank reads it afterwards.
func (b *Bcaster) Buffer() mpi.Buf { return b.buf }

// Bcast runs the timed operation of Fig. 6: the inter-node broadcast
// over the bridge (rooted at the root's node) followed by one on-node
// synchronization so that all on-node processes see the updated shared
// buffer (lines 7/10/13). root is a comm rank; when the root is a
// child, its leader must additionally wait for the root's write, which
// costs one flag hand-off on that node.
func (b *Bcaster) Bcast(root int) error {
	return b.ctx.epoch("bcast", fromRoot, root, true, func(bridge *mpi.Comm, rootNode int) error {
		if bridge == nil {
			return nil
		}
		return coll.Bcast(bridge, b.buf, rootNode)
	})
}
