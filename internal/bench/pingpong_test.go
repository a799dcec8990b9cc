package bench

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

func TestPingPongMonotone(t *testing.T) {
	model := sim.HazelHenCray()
	prev := sim.Time(0)
	for _, bytes := range []int{0, 64, 4096, 1 << 20} {
		lat, err := PingPong(model, false, bytes, 4)
		if err != nil {
			t.Fatal(err)
		}
		if lat < prev {
			t.Errorf("latency not monotone at %dB: %v < %v", bytes, lat, prev)
		}
		prev = lat
	}
}

func TestFitRecoversProfileBeta(t *testing.T) {
	// The fitted per-byte cost must recover the profile's beta for
	// both hop classes — a regression guard on the p2p cost
	// accounting.
	for _, sameNode := range []bool{true, false} {
		model := sim.HazelHenCray()
		_, beta, err := FitAlphaBeta(model, sameNode)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(model.NetBetaPsPerByte)
		if sameNode {
			want = float64(model.ShmBetaPsPerByte)
		}
		if math.Abs(beta-want) > 0.05*want {
			t.Errorf("sameNode=%v: fitted beta %.1f ps/B, profile %.1f", sameNode, beta, want)
		}
	}
}

func TestFitAlphaNearProfile(t *testing.T) {
	// Fitted alpha = wire latency + software overheads; it must be
	// within a small constant of the profile's raw alpha.
	model := sim.VulcanOpenMPI()
	alpha, _, err := FitAlphaBeta(model, false)
	if err != nil {
		t.Fatal(err)
	}
	if alpha < model.NetAlpha {
		t.Errorf("fitted alpha %v below raw wire latency %v", alpha, model.NetAlpha)
	}
	if alpha > model.NetAlpha+10*sim.Microsecond {
		t.Errorf("fitted alpha %v implausibly far above wire latency %v", alpha, model.NetAlpha)
	}
}

func TestTraceStatsOnCollective(t *testing.T) {
	// Tracing a run must surface the message traffic.
	tr := sim.NewTracer()
	model := sim.Laptop()
	topo, err := sim.NewTopology([]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(model, topo, mpi.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(p *mpi.Proc) error {
		return p.CommWorld().Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Events == 0 {
		t.Fatal("no events recorded")
	}
	if st.ByKind["send"].Count == 0 {
		t.Error("no sends recorded")
	}
	var sb strings.Builder
	if err := st.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "send") {
		t.Errorf("stats output missing kinds: %q", sb.String())
	}
}

// PingPong measures the half round-trip latency between two ranks at a
// given message size — the classic OSU latency benchmark, run inside
// the simulator. Because the cost model is analytic, the harness can
// also *fit* alpha/beta back out of the measurements and check them
// against the profile: a self-calibration that guards against cost
// accounting regressions in the p2p engine.
func PingPong(model *sim.CostModel, sameNode bool, bytes, iters int, opts ...mpi.Option) (sim.Time, error) {
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
	}, opts...)
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
