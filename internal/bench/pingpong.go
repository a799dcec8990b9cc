package bench

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// PingPong measures the half round-trip latency between two ranks at a
// given message size — the classic OSU latency benchmark, run inside
// the simulator. Because the cost model is analytic, the harness can
// also *fit* alpha/beta back out of the measurements and check them
// against the profile: a self-calibration that guards against cost
// accounting regressions in the p2p engine.
func PingPong(model *sim.CostModel, sameNode bool, bytes, iters int) (sim.Time, error) {
	shape := []int{1, 1}
	if sameNode {
		shape = []int{2}
	}
	if iters <= 0 {
		iters = 4
	}
	t, err := Makespan(model, shape, func(p *mpi.Proc) error {
		c := p.CommWorld()
		buf := mpi.Sized(bytes)
		for i := 0; i < iters; i++ {
			if p.Rank() == 0 {
				if err := c.Send(buf, 1, 1); err != nil {
					return err
				}
				if _, err := c.Recv(buf, 1, 2); err != nil {
					return err
				}
			} else {
				if _, err := c.Recv(buf, 0, 1); err != nil {
					return err
				}
				if err := c.Send(buf, 0, 2); err != nil {
					return err
				}
			}
		}
		return nil
	})
	// Half round trip, averaged.
	return t / sim.Time(2*iters), err
}

// FitAlphaBeta runs ping-pong at two sizes and solves for the effective
// per-message latency (alpha, including overheads) and per-byte cost
// (beta) of the chosen path.
func FitAlphaBeta(model *sim.CostModel, sameNode bool) (alpha sim.Time, betaPsPerByte float64, err error) {
	small, big := 0, 1<<20
	t1, err := PingPong(model, sameNode, small, 4)
	if err != nil {
		return 0, 0, err
	}
	t2, err := PingPong(model, sameNode, big, 4)
	if err != nil {
		return 0, 0, err
	}
	if t2 < t1 {
		return 0, 0, fmt.Errorf("bench: ping-pong not monotone: %v then %v", t1, t2)
	}
	beta := float64(t2-t1) / float64(big-small)
	return t1, beta, nil
}
