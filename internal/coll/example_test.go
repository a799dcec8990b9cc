package coll_test

import (
	"fmt"

	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// A tuning attached with WithTuning steers every collective on the
// handle. The same 8 KiB Allreduce (1,024 float64s) on 4 nodes x 4
// ranks runs under the table policy (the zero Tuning) and under the
// cost policy, which prices both allreduce algorithms and picks the
// cheaper.
func ExampleWithTuning() {
	const elems = 1024
	for _, tun := range []coll.Tuning{{}, {Policy: coll.PolicyCost}} {
		w, err := mpi.NewWorld(sim.HazelHenCray(), sim.MustUniform(4, 4))
		if err != nil {
			panic(err)
		}
		err = w.Run(func(p *mpi.Proc) error {
			c := coll.WithTuning(p.CommWorld(), tun)
			return coll.Allreduce(c, mpi.Sized(8*elems), mpi.Sized(8*elems), elems, mpi.Float64, mpi.OpSum)
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %.2f us\n", tun.Policy, w.MaxClock().Us())
		w.Close()
	}
	// Output:
	// table: 15.84 us
	// cost: 11.78 us
}
