package mpi

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// dispatchProgram is a mixed event-engine program that logs the order in
// which ranks come back from blocking calls: every rank appends its id
// to seq each time Sendrecv, Barrier, Split, Test or Wait returns, error
// or not. The engine runs one rank at a time, so the shared slice needs
// no lock, and the log is the dispatch sequence as the ranks see it. A
// failAt rank returns an error right after the Split; the others then
// unwind through the abort.
func dispatchProgram(seq *[]int, failAt int) func(p *Proc) error {
	return func(p *Proc) error {
		c := p.CommWorld()
		n, rank := c.Size(), c.Rank()
		mark := func() { *seq = append(*seq, rank) }
		_, err := c.Sendrecv(Sized(64), (rank+1)%n, 1, Sized(64), (rank-1+n)%n, 1)
		mark()
		if err != nil {
			return err
		}
		err = c.Barrier()
		mark()
		if err != nil {
			return err
		}
		sub, err := c.Split(rank%2, n-rank)
		mark()
		if err != nil {
			return err
		}
		if rank == failAt {
			return errors.New("planted failure")
		}
		m, r := sub.Size(), sub.Rank()
		big := Sized(1 << 20) // rendezvous: completion needs the partner
		rq, err := sub.Irecv(big, (r-1+m)%m, 2)
		if err != nil {
			return err
		}
		sq, err := sub.Isend(big, (r+1)%m, 2)
		if err != nil {
			return err
		}
		for {
			ok, _, err := rq.Test()
			mark()
			if err != nil {
				return err
			}
			if ok {
				break
			}
		}
		_, err = sq.Wait()
		mark()
		if err != nil {
			return err
		}
		err = sub.Barrier()
		mark()
		return err
	}
}

// TestEventDispatchSequence pins the event engine's dispatch order: the
// ready ring's order decides which rank runs next, and with it the order
// in which ranks observe each other. A change to the scheduler's
// mechanism must leave the literals as they are.
func TestEventDispatchSequence(t *testing.T) {
	cases := []struct {
		name   string
		failAt int
		want   string
	}{
		{"clean", -1, "[1 2 3 4 5 6 7 0 0 1 2 4 3 5 6 7 7 0 1 2 3 4 5 5 5 6 6 6 7 7 7 0 0 0 1 1 1 2 2 2 3 3 3 4 4 4 7 0 1 2 3 4 5 6]"},
		{"rank 3 fails", 3, "[1 2 3 4 5 6 7 0 0 1 2 4 3 5 6 7 7 0 1 2 3 4 5 6 7 7 7 0 0 0 1 1 2 2]"},
	}
	for _, tc := range cases {
		w, err := NewWorld(sim.HazelHenCray(), sim.MustUniform(2, 4), WithEngine(sim.EngineEvent))
		if err != nil {
			t.Fatal(err)
		}
		var seq []int
		err = w.Run(dispatchProgram(&seq, tc.failAt))
		w.Close()
		if (tc.failAt < 0) != (err == nil) {
			t.Fatalf("%s: Run returned %v", tc.name, err)
		}
		if got := fmt.Sprint(seq); got != tc.want {
			t.Errorf("%s: dispatch sequence\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
