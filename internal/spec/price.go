package spec

import (
	"repro/internal/coll"
	"repro/internal/sim"
)

// PriceCandidate is one registered algorithm's alpha-beta-gamma
// estimate at a ladder point.
type PriceCandidate struct {
	// Name is the registered algorithm name.
	Name string `json:"name"`
	// Applicable reports whether the algorithm can run this call at
	// all (e.g. recursive doubling needs a power-of-two communicator).
	Applicable bool `json:"applicable"`
	// EstUs is the cost-model estimate in microseconds (0 when
	// inapplicable).
	EstUs float64 `json:"est_us"`
}

// PricePoint is the selection engine's view of one ladder size: the
// policy's pick and every candidate's price.
type PricePoint struct {
	// Bytes is the ladder entry.
	Bytes int `json:"bytes"`
	// Chosen is the algorithm the query's tuning selects, or "hybrid".
	Chosen string `json:"chosen"`
	// Candidates lists every registered algorithm's estimate, in
	// registration order.
	Candidates []PriceCandidate `json:"candidates"`
}

// PriceReport is what pricing a Query produces: no simulation, only
// the selection engine's cost estimates — microseconds to compute, so
// the service serves it outside the worker pool.
type PriceReport struct {
	// Fingerprint is the query's canonical fingerprint.
	Fingerprint string `json:"fingerprint"`
	// Machine is the cost-model profile name.
	Machine string `json:"machine"`
	// Topology is the human-readable shape.
	Topology string `json:"topology"`
	// Ranks is the total rank count.
	Ranks int `json:"ranks"`
	// Collective is the operation priced.
	Collective string `json:"collective"`
	// Hop is the hop class the estimates assume: the class of the
	// innermost topology level containing every rank (the
	// communicator-wide locality of CommWorld).
	Hop string `json:"hop"`
	// Policy is the selection policy in effect.
	Policy string `json:"policy"`
	// Points is the ladder, ascending by Bytes.
	Points []PricePoint `json:"points"`
}

// commWideHop returns the hop class of a communicator spanning the
// whole topology: the class of the innermost level with a single
// group, HopNet when every level is partitioned.
func commWideHop(t *sim.Topology) sim.HopClass {
	for l := 0; l < t.NumLevels(); l++ {
		if t.Groups(l) == 1 {
			return t.LevelClass(l)
		}
	}
	return sim.HopNet
}

// Price evaluates the query against the selection engine's cost
// estimates only: for every ladder size, the algorithm the tuning
// policy picks and each registered candidate's price. The query is
// canonicalized in place.
func Price(q *Query) (*PriceReport, error) {
	if err := q.Canonicalize(); err != nil {
		return nil, err
	}
	fp, err := q.Fingerprint()
	if err != nil {
		return nil, err
	}
	model, err := q.Model()
	if err != nil {
		return nil, err
	}
	topo, err := q.Topology.Build()
	if err != nil {
		return nil, err
	}
	cl, err := coll.ParseCollective(q.Collective)
	if err != nil {
		return nil, err
	}
	collTun, err := q.Tuning.Coll()
	if err != nil {
		return nil, err
	}
	hop := commWideHop(topo)

	rep := &PriceReport{
		Fingerprint: fp,
		Machine:     q.Machine,
		Topology:    topo.String(),
		Ranks:       topo.Size(),
		Collective:  q.Collective,
		Hop:         hop.String(),
		Policy:      collTun.Policy.String(),
	}
	for _, b := range q.Sizes {
		// Env conventions (see coll.Env): Bytes is the per-rank block
		// for allgather/alltoall, the total payload otherwise; Count
		// feeds the reduction gamma term and uses the same whole-element
		// floor as the run path, so /v1/price and /v1/run agree on
		// sub-8-byte ladder entries.
		e := coll.Env{Size: topo.Size(), Bytes: b, Count: elems(b), Model: model, Hop: hop}
		pt := PricePoint{Bytes: b}
		if q.Tuning.hybrid(cl) {
			pt.Chosen = "hybrid"
		} else if chosen, err := coll.Choose(cl, e, collTun); err == nil {
			pt.Chosen = chosen
		}
		for _, c := range coll.Candidates(cl, e) {
			pt.Candidates = append(pt.Candidates, PriceCandidate{
				Name:       c.Name,
				Applicable: c.Applicable,
				EstUs:      c.Est.Us(),
			})
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}
