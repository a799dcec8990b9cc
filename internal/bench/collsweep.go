package bench

import (
	"fmt"
	"io"

	"repro/internal/coll"
	"repro/internal/sim"
)

// The coll-sweep reports what the selection engine decides, not how
// fast the host runs: for each collective and communicator shape it
// sweeps the message size and records the algorithm the cost policy
// picks, then extracts the crossover points — the sizes at which the
// choice flips. The sweep golden (testdata/sweeps.golden.json) pins the
// table, so a PR that moves a crossover fails tier-1 until the golden
// is regenerated and the move shows up in review.

// SweepPoint is one (collective, shape, size) decision.
type SweepPoint struct {
	Collective string  `json:"collective"`
	CommSize   int     `json:"comm_size"`
	Hop        string  `json:"hop"`
	Bytes      int     `json:"bytes"`
	Chosen     string  `json:"chosen"`
	EstUs      float64 `json:"est_us"`
}

// Crossover marks a size at which the chosen algorithm changes.
type Crossover struct {
	Collective string `json:"collective"`
	CommSize   int    `json:"comm_size"`
	Hop        string `json:"hop"`
	From       string `json:"from"`
	To         string `json:"to"`
	AtBytes    int    `json:"at_bytes"`
}

// CollSweepReport is the sweep section of a BENCH_*.json document.
type CollSweepReport struct {
	Model      string       `json:"model"`
	Policy     string       `json:"policy"`
	Points     []SweepPoint `json:"points"`
	Crossovers []Crossover  `json:"crossovers"`
}

// Fprint lists the crossovers.
func (s *CollSweepReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\ncoll-sweep (%s, policy %s): %d points, crossovers:\n",
		s.Model, s.Policy, len(s.Points))
	for _, x := range s.Crossovers {
		fmt.Fprintf(w, "  %-10s n=%-3d %s: %s -> %s at %d B\n",
			x.Collective, x.CommSize, x.Hop, x.From, x.To, x.AtBytes)
	}
}

// sweepSizes is the message-size sweep: 8 B to 4 MiB in powers of two.
func sweepSizes() []int {
	var out []int
	for b := 8; b <= 4<<20; b <<= 1 {
		out = append(out, b)
	}
	return out
}

// RunCollSweep evaluates the cost-policy selection over the standard
// sweep: the three tunable collectives with real crossovers, at
// single-node-ish and figure-scale communicator sizes, over the
// network hop class (the regime the paper's figures live in).
func RunCollSweep(model *sim.CostModel, tun coll.Tuning) *CollSweepReport {
	rep := &CollSweepReport{Model: model.Name, Policy: tun.Policy.String()}
	colls := []coll.Collective{coll.CollAllgather, coll.CollAllreduce, coll.CollBcast}
	for _, cl := range colls {
		for _, size := range []int{8, 24, 64} {
			prev := ""
			for _, bytes := range sweepSizes() {
				// Env conventions (see coll.Env): Bytes is the
				// per-rank block for allgather, the total vector
				// otherwise; Count feeds the reduction gamma term.
				e := coll.Env{Size: size, Bytes: bytes, Count: bytes / 8, Model: model, Hop: sim.HopNet}
				chosen, err := coll.Choose(cl, e, tun)
				if err != nil {
					continue
				}
				var est sim.Time
				for _, c := range coll.Candidates(cl, e) {
					if c.Name == chosen {
						est = c.Est
					}
				}
				rep.Points = append(rep.Points, SweepPoint{
					Collective: cl.String(),
					CommSize:   size,
					Hop:        sim.HopNet.String(),
					Bytes:      bytes,
					Chosen:     chosen,
					EstUs:      est.Us(),
				})
				if prev != "" && chosen != prev {
					rep.Crossovers = append(rep.Crossovers, Crossover{
						Collective: cl.String(),
						CommSize:   size,
						Hop:        sim.HopNet.String(),
						From:       prev,
						To:         chosen,
						AtBytes:    bytes,
					})
				}
				prev = chosen
			}
		}
	}
	return rep
}
