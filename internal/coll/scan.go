package coll

import (
	"fmt"

	"repro/internal/mpi"
)

// Scan computes the inclusive prefix reduction: rank r's recv holds
// op(send_0, ..., send_r). The algorithm is resolved by the selection
// engine: under the default table policy the classic recursive-doubling
// scan (what this entry point always ran), with the linear pipeline
// available to the cost policy and Force overrides.
func Scan(c *mpi.Comm, send, recv mpi.Buf, count int, dt mpi.Datatype, op mpi.Op) error {
	if err := checkReduceArgs(c, send, recv, count, dt); err != nil {
		return err
	}
	run, err := dispatch[scanFn](c, CollScan, envFor(c, count*dt.Size(), count), false)
	if err != nil {
		return err
	}
	return run(c, send, recv, count, dt, op)
}

// ScanRecDbl is the classic recursive-doubling scan: log2 n steps,
// partial results folded in from strictly lower ranks only.
func ScanRecDbl(c *mpi.Comm, send, recv mpi.Buf, count int, dt mpi.Datatype, op mpi.Op) error {
	if err := checkReduceArgs(c, send, recv, count, dt); err != nil {
		return err
	}
	p := c.Proc()
	bytes := count * dt.Size()
	p.CopyLocal(recv.Slice(0, bytes), send.Slice(0, bytes), 1)
	if c.Size() == 1 {
		return nil
	}
	// acc carries the running prefix including my own contribution;
	// recv carries the value to report.
	acc := p.World().NewBuf(bytes)
	p.CopyLocal(acc, send.Slice(0, bytes), 1)
	tmp := p.World().NewBuf(bytes)

	rank, n := c.Rank(), c.Size()
	for mask := 1; mask < n; mask <<= 1 {
		partner := rank ^ mask
		if partner >= n {
			continue
		}
		if _, err := c.Sendrecv(acc, partner, tagScan, tmp, partner, tagScan); err != nil {
			return fmt.Errorf("coll: scan mask %d: %w", mask, err)
		}
		// Fold the partner's partial into the running total; only
		// lower-ranked partners contribute to my reported prefix.
		if partner < rank {
			op.Apply(recv, tmp, count, dt)
			p.Compute(float64(count))
		}
		op.Apply(acc, tmp, count, dt)
		p.Compute(float64(count))
	}
	return nil
}

// ScanLinear is the pipeline scan: each rank waits for its
// predecessor's prefix, folds in its own contribution and forwards the
// running total. n-1 serialized hops, but only one message per rank —
// the shape real libraries keep for short vectors on shallow
// communicators.
func ScanLinear(c *mpi.Comm, send, recv mpi.Buf, count int, dt mpi.Datatype, op mpi.Op) error {
	if err := checkReduceArgs(c, send, recv, count, dt); err != nil {
		return err
	}
	p := c.Proc()
	bytes := count * dt.Size()
	p.CopyLocal(recv.Slice(0, bytes), send.Slice(0, bytes), 1)
	n, rank := c.Size(), c.Rank()
	if n == 1 {
		return nil
	}
	if rank > 0 {
		tmp := p.World().NewBuf(bytes)
		if _, err := c.Recv(tmp, rank-1, tagScan); err != nil {
			return fmt.Errorf("coll: scan linear recv: %w", err)
		}
		// Fold the predecessor prefix under mine (prefix order is
		// commutative-safe here; Op kernels are elementwise).
		op.Apply(recv, tmp, count, dt)
		p.Compute(float64(count))
	}
	if rank < n-1 {
		if err := c.Send(recv.Slice(0, bytes), rank+1, tagScan); err != nil {
			return fmt.Errorf("coll: scan linear send: %w", err)
		}
	}
	return nil
}
