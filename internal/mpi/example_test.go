package mpi_test

import (
	"errors"
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// A checkpointed allreduce loop that survives a rank failure, with the
// ULFM recipe. The world's noise config kills rank 3 at a fixed virtual
// deadline, so every run fails identically. An operation touching the
// dead rank fails with ErrRankFailed (a peer that raced ahead may see
// ErrRevoked: both mean the communicator is broken). The first rank to
// see it Revokes the communicator, so no survivor stays parked on it;
// all survivors Agree whether the round committed; if not, Shrink mints
// a communicator over the survivors, everyone rolls back to the round's
// checkpoint, and the loop resumes one rank smaller.
func ExampleComm_Shrink() {
	const (
		iters    = 10
		step     = 100 * sim.Microsecond // per-round local compute
		deadRank = 3
	)
	topo := sim.MustUniform(2, 4)
	n := topo.Size()
	noise := &sim.Noise{Failures: []sim.Failure{{Rank: deadRank, At: 520 * sim.Microsecond}}}
	w, err := mpi.NewWorld(sim.Laptop(), topo, mpi.WithNoise(noise), mpi.WithRealData())
	if err != nil {
		panic(err)
	}
	defer w.Close()

	recoverable := func(err error) bool {
		return errors.Is(err, mpi.ErrRankFailed) || errors.Is(err, mpi.ErrRevoked)
	}
	totals := make([]float64, n)
	fullRounds := make([]int, n) // rounds committed before the shrink
	err = w.Run(func(p *mpi.Proc) error {
		c := p.CommWorld()
		contribution := float64(p.Rank() + 1)
		var total float64
		full, shrunk := 0, false
		for it := 0; it < iters; {
			checkpoint := total
			p.Elapse(step) // rank 3 dies here once its clock passes its deadline
			sum, err := sumThroughRoot(w, c, contribution, 2*it)
			if err != nil && !recoverable(err) {
				return err
			}
			if err != nil {
				c.Revoke()
			}
			// The round counts only if every survivor completed it.
			ok, aerr := c.Agree(err == nil)
			if aerr != nil && !recoverable(aerr) {
				return aerr
			}
			if aerr == nil && ok {
				total += sum
				if !shrunk {
					full++
				}
				it++
				continue
			}
			nc, err := c.Shrink()
			if err != nil {
				return err
			}
			c, total, shrunk = nc, checkpoint, true
		}
		totals[p.Rank()] = total
		fullRounds[p.Rank()] = full
		return nil
	})
	if err != nil {
		panic(err)
	}

	full := fullRounds[0]
	fullSum := float64(n * (n + 1) / 2)
	want := float64(full)*fullSum + float64(iters-full)*(fullSum-deadRank-1)
	agree := true
	for r, got := range totals {
		agree = agree && (r == deadRank || got == want && fullRounds[r] == full)
	}
	fmt.Println("damaged:", w.Damaged(), "dead ranks:", w.DeadRanks())
	fmt.Printf("%d rounds at the full %d-rank sum, %d recovered rounds at %d ranks\n",
		full, n, iters-full, n-1)
	fmt.Printf("every survivor holds %.0f: %v\n", want, agree)
	fmt.Println("virtual makespan:", w.MaxClock())
	// Output:
	// damaged: true dead ranks: [3]
	// 3 rounds at the full 8-rank sum, 7 recovered rounds at 7 ranks
	// every survivor holds 332: true
	// virtual makespan: 2.03ms
}

// sumThroughRoot sums one value per member through comm rank 0 with
// plain Send/Recv, O(n) on purpose: every transfer's failure is an
// error the caller can recover from, and after a Shrink it works at
// any comm size.
func sumThroughRoot(w *mpi.World, c *mpi.Comm, v float64, tag int) (float64, error) {
	buf := w.NewBuf(8)
	if c.Rank() != 0 {
		buf.PutFloat64(0, v)
		if err := c.Send(buf, 0, tag); err != nil {
			return 0, err
		}
		_, err := c.Recv(buf, 0, tag+1)
		return buf.Float64At(0), err
	}
	sum := v
	for r := 1; r < c.Size(); r++ {
		if _, err := c.Recv(buf, r, tag); err != nil {
			return 0, err
		}
		sum += buf.Float64At(0)
	}
	buf.PutFloat64(0, sum)
	for r := 1; r < c.Size(); r++ {
		if err := c.Send(buf, r, tag+1); err != nil {
			return 0, err
		}
	}
	return sum, nil
}
