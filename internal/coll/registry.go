package coll

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// This file is the collective selection engine: a registry enumerating
// every algorithm the package implements per collective, each with an
// applicability predicate and an alpha-beta-gamma cost estimate, plus
// the three selection policies (the profile's static cutoff table, the
// cost-model minimizer, and the measurement cache with its cost
// fallback) that every entry point routes through.

// Collective identifies one collective operation family in the
// registry and in Tuning.Force keys.
type Collective int

// The collective families the registry enumerates, in the order the
// engine registers them.
const (
	CollAllgather Collective = iota
	CollAllgatherv
	CollAllreduce
	CollReduce
	CollBcast
	CollBarrier
	CollAlltoall
	CollGather
	CollScan
	numCollectives
)

// String names the collective as accepted by ParseTuning.
func (cl Collective) String() string {
	switch cl {
	case CollAllgather:
		return "allgather"
	case CollAllgatherv:
		return "allgatherv"
	case CollAllreduce:
		return "allreduce"
	case CollReduce:
		return "reduce"
	case CollBcast:
		return "bcast"
	case CollBarrier:
		return "barrier"
	case CollAlltoall:
		return "alltoall"
	case CollGather:
		return "gather"
	case CollScan:
		return "scan"
	default:
		return fmt.Sprintf("Collective(%d)", int(cl))
	}
}

// ParseCollective is the inverse of String.
func ParseCollective(s string) (Collective, error) {
	for cl := Collective(0); cl < numCollectives; cl++ {
		if cl.String() == s {
			return cl, nil
		}
	}
	return 0, fmt.Errorf("coll: unknown collective %q", s)
}

// Env describes one collective invocation for selection purposes: the
// communicator size, the payload, and which hop class dominates the
// exchange (shared memory on single-node communicators, the network
// otherwise). Bytes is the per-rank block for Allgather/Alltoall and
// the total payload for the other collectives; Count is the element
// count of the reducing collectives (their gamma term).
type Env struct {
	Size  int
	Bytes int
	Count int
	Model *sim.CostModel
	Hop   sim.HopClass
}

// envFor derives the selection environment of a call on a communicator.
// The hop class is the communicator's locality: the class of the
// innermost topology level containing every member (on a node-only
// topology, exactly the historical single-node-shm / otherwise-net
// split). This is what moves crossovers independently per level: a
// socket-tier communicator prices its candidates with socket
// alpha/beta, the bridge with network alpha/beta.
func envFor(c *mpi.Comm, bytes, count int) Env {
	return Env{Size: c.Size(), Bytes: bytes, Count: count, Model: c.Proc().Model(), Hop: c.HopClass()}
}

// Runner signatures per collective family. exchangeFn is the one
// signature of the allgather and allgatherv families' in-place-capable
// runners: an exchange over blocks every rank has already placed, which
// the regular and the in-place entry points both reach (the regular one
// places the caller's block first). allgatherFn is the full signature
// of the two allgather algorithms whose layout rules that out.
type (
	exchangeFn  = func(*mpi.Comm, blocks, family) error
	allgatherFn = func(*mpi.Comm, mpi.Buf, mpi.Buf, int) error
	allreduceFn = func(*mpi.Comm, mpi.Buf, mpi.Buf, int, mpi.Datatype, mpi.Op) error
	reduceFn    = func(*mpi.Comm, mpi.Buf, mpi.Buf, int, mpi.Datatype, mpi.Op, int) error
	bcastFn     = func(*mpi.Comm, mpi.Buf, int) error
	barrierFn   = func(*mpi.Comm) error
	alltoallFn  = func(*mpi.Comm, mpi.Buf, mpi.Buf, int) error
	gatherFn    = func(*mpi.Comm, mpi.Buf, mpi.Buf, int, int) error
	scanFn      = func(*mpi.Comm, mpi.Buf, mpi.Buf, int, mpi.Datatype, mpi.Op) error
)

// entry is one registered algorithm.
type entry struct {
	name    string
	applies func(Env) bool     // nil = always applicable
	cost    func(Env) sim.Time // alpha-beta-gamma estimate (PolicyCost)

	run any // the runner, of its family's signature above

	// foldable marks algorithms proven safe under the mpi package's
	// rank-symmetry folding (mpi.Config.FoldUnit) when the communicator size
	// and the fold unit are both powers of two: every rank executes the
	// same step sequence with rank-translation-consistent partners
	// (r -> r±s mod n, or r -> r^mask with power-of-two operands), and
	// each step keeps at most one crossed send outstanding (the
	// Sendrecv discipline), so FIFO matching pairs equivalence classes
	// correctly. Algorithms with rank-dependent schedules (binomial
	// trees rooted at one rank, Bruck's truncated last step paired with
	// rotation copies, the parity-split neighbor exchange,
	// Rabenseifner's halving buffers) stay unmarked even where a deeper
	// analysis might admit them. See internal/mpi/fold.go.
	foldable bool
}

// Cost-term helpers. The estimates intentionally mirror the textbook
// LogGP expressions the algorithm comments cite, not the simulator's
// exact event timeline: they only need to rank algorithms the way the
// real formulas do, so crossovers land where the literature puts them.
func alphaT(e Env) sim.Time { return e.Model.Alpha(e.Hop) }

func betaT(e Env, n int) sim.Time {
	if n < 0 {
		n = 0
	}
	return sim.Time(int64(n) * e.Model.BetaPsPerByte(e.Hop))
}

func gammaT(e Env, elems int) sim.Time { return e.Model.ComputeCost(float64(elems)) }

func timesT(k int, t sim.Time) sim.Time { return sim.Time(int64(k)) * t }

// bisection is the contention multiplier the estimates charge on the
// bandwidth term of doubling-distance algorithms (recursive doubling,
// Bruck): their later steps move half the result across the network
// bisection, where links are shared, while ring and neighbor exchange
// stay near-neighbor at full per-link bandwidth. This is the standard
// reason libraries cross over to ring for large totals; without it the
// logarithmic algorithms would win at every size on paper.
const bisection = 2

// registry holds every algorithm in registration order (the
// deterministic tie-break of PolicyCost).
var registry = [numCollectives][]entry{
	CollAllgather: {
		{
			name:    "recdbl",
			applies: func(e Env) bool { return isPow2(e.Size) },
			cost: func(e Env) sim.Time {
				return timesT(sim.Log2Ceil(e.Size), alphaT(e)) +
					timesT(bisection, betaT(e, (e.Size-1)*e.Bytes))
			},
			run:      exchangeFn(allgatherRecDbl),
			foldable: true,
		},
		{
			name: "bruck",
			cost: func(e Env) sim.Time {
				return timesT(sim.Log2Ceil(e.Size), alphaT(e)) +
					timesT(bisection, betaT(e, (e.Size-1)*e.Bytes)) +
					e.Model.CopyCost(e.Size*e.Bytes, 1)
			},
			run: allgatherFn(allgatherBruck),
		},
		{
			name: "ring",
			cost: func(e Env) sim.Time {
				return timesT(e.Size-1, alphaT(e)+betaT(e, e.Bytes))
			},
			run:      exchangeFn(allgatherRing),
			foldable: true,
		},
		{
			name:    "neighbor",
			applies: func(e Env) bool { return e.Size%2 == 0 },
			cost: func(e Env) sim.Time {
				// n/2 pairwise steps, each exchanging two blocks:
				// half the ring's latency, one extra block of
				// bandwidth.
				return timesT(e.Size/2, alphaT(e)) + betaT(e, e.Size*e.Bytes)
			},
			run: allgatherFn(allgatherNeighbor),
		},
	},
	CollAllgatherv: {
		{
			name:    "recdbl",
			applies: func(e Env) bool { return isPow2(e.Size) },
			cost: func(e Env) sim.Time {
				steps := sim.Log2Ceil(e.Size)
				return timesT(steps, alphaT(e)+e.Model.Tuning.AllgathervStepPenalty) +
					timesT(bisection, betaT(e, e.Bytes-e.Bytes/max(e.Size, 1)))
			},
			run: exchangeFn(allgatherRecDbl),
		},
		{
			name: "ring",
			cost: func(e Env) sim.Time {
				return timesT(e.Size-1, alphaT(e)+e.Model.Tuning.AllgathervStepPenalty) +
					betaT(e, e.Bytes-e.Bytes/max(e.Size, 1))
			},
			run: exchangeFn(allgatherRing),
		},
	},
	CollAllreduce: {
		{
			name: "recdbl",
			cost: func(e Env) sim.Time {
				steps := sim.Log2Ceil(e.Size)
				return timesT(steps, alphaT(e)+betaT(e, e.Bytes)) + gammaT(e, e.Count*steps)
			},
			run:      allreduceFn(AllreduceRecDbl),
			foldable: true,
		},
		{
			name: "rabenseifner",
			applies: func(e Env) bool {
				pof2, _ := foldCore(e.Size)
				return e.Count >= pof2
			},
			cost: func(e Env) sim.Time {
				n := e.Size
				moved := 2 * e.Bytes * (n - 1) / max(n, 1)
				return timesT(2*sim.Log2Ceil(n), alphaT(e)) + betaT(e, moved) +
					gammaT(e, e.Count*(n-1)/max(n, 1))
			},
			run: allreduceFn(AllreduceRabenseifner),
		},
	},
	CollReduce: {
		{
			name: "binomial",
			cost: func(e Env) sim.Time {
				steps := sim.Log2Ceil(e.Size)
				return timesT(steps, alphaT(e)+betaT(e, e.Bytes)) + gammaT(e, e.Count*steps)
			},
			run: reduceFn(ReduceBinomial),
		},
	},
	CollBcast: {
		{
			name: "binomial",
			cost: func(e Env) sim.Time {
				return timesT(sim.Log2Ceil(e.Size), alphaT(e)+betaT(e, e.Bytes))
			},
			run: bcastFn(BcastBinomial),
		},
		{
			name: "scag",
			cost: func(e Env) sim.Time {
				n := e.Size
				return timesT(sim.Log2Ceil(n)+n-1, alphaT(e)) +
					betaT(e, 2*e.Bytes*(n-1)/max(n, 1))
			},
			run: bcastFn(BcastScatterAllgather),
		},
		{
			name: "pipelined",
			cost: func(e Env) sim.Time {
				chunk := e.Model.Tuning.BcastChunk
				if chunk <= 0 {
					chunk = 64 << 10
				}
				chunks := (e.Bytes + chunk - 1) / chunk
				if chunks < 1 {
					chunks = 1
				}
				return timesT(e.Size-1+chunks, alphaT(e)+betaT(e, chunk))
			},
			run: bcastFn(func(c *mpi.Comm, buf mpi.Buf, root int) error {
				return BcastPipelined(c, buf, root, c.Proc().Model().Tuning.BcastChunk)
			}),
		},
	},
	CollBarrier: {
		{
			name: "dissemination",
			cost: func(e Env) sim.Time {
				rounds := sim.Log2Ceil(e.Size)
				if e.Hop.SharedMemory() {
					// The native barrier's single-node fast path:
					// flag-based rounds of two cache-line operations.
					// Socket/numa-tier communicators take it too.
					return timesT(rounds, 2*e.Model.MemAlpha)
				}
				return timesT(rounds, alphaT(e))
			},
			run:      barrierFn(func(c *mpi.Comm) error { return c.Barrier() }),
			foldable: true,
		},
		{
			name: "central",
			cost: func(e Env) sim.Time {
				return timesT(2*(e.Size-1), alphaT(e))
			},
			run: barrierFn(barrierCentral),
		},
	},
	CollAlltoall: {
		{
			name: "pairwise",
			cost: func(e Env) sim.Time {
				return timesT(e.Size-1, alphaT(e)+betaT(e, e.Bytes))
			},
			run:      alltoallFn(AlltoallPairwise),
			foldable: true,
		},
	},
	CollGather: {
		{
			name: "binomial",
			cost: func(e Env) sim.Time {
				// log n rounds; the root-adjacent link still moves
				// (n-1) blocks, and the root pays the unrotate copy.
				return timesT(sim.Log2Ceil(e.Size), alphaT(e)) +
					betaT(e, (e.Size-1)*e.Bytes) +
					e.Model.CopyCost(e.Size*e.Bytes, 1)
			},
			run: gatherFn(GatherBinomial),
		},
		{
			name: "linear",
			cost: func(e Env) sim.Time {
				// Every child posts one message straight to the root:
				// n-1 latencies serialized at the root, no forwarding
				// copies — the intra-node winner.
				return timesT(e.Size-1, alphaT(e)) + betaT(e, (e.Size-1)*e.Bytes)
			},
			run: gatherFn(GatherLinear),
		},
	},
	CollScan: {
		{
			name: "recdbl",
			cost: func(e Env) sim.Time {
				steps := sim.Log2Ceil(e.Size)
				return timesT(steps, alphaT(e)+betaT(e, e.Bytes)) + gammaT(e, 2*e.Count*steps)
			},
			run: scanFn(ScanRecDbl),
		},
		{
			name: "linear",
			cost: func(e Env) sim.Time {
				// The last rank's critical path: the prefix trickles
				// through every predecessor.
				return timesT(e.Size-1, alphaT(e)+betaT(e, e.Bytes)) + gammaT(e, e.Count*(e.Size-1))
			},
			run: scanFn(ScanLinear),
		},
	},
}

// tableChoice is the PolicyTable decision function: the historical
// hard-wired cutoffs of the machine profile's tuning table, collected
// in one place. It must keep returning exactly what the pre-registry
// entry points chose — the determinism golden tests pin that.
func tableChoice(cl Collective, e Env, inPlace bool) string {
	tun := &e.Model.Tuning
	switch cl {
	case CollAllgather:
		if e.Size*e.Bytes <= tun.AllgatherShortMax {
			if isPow2(e.Size) {
				return "recdbl"
			}
			if !inPlace {
				return "bruck"
			}
		}
		return "ring"
	case CollAllgatherv:
		if e.Bytes <= tun.AllgathervShortMax && isPow2(e.Size) {
			return "recdbl"
		}
		return "ring"
	case CollAllreduce:
		if e.Bytes <= tun.AllreduceShortMax || e.Count < e.Size {
			return "recdbl"
		}
		return "rabenseifner"
	case CollReduce:
		return "binomial"
	case CollBcast:
		switch {
		case e.Bytes <= tun.BcastShortMax || e.Size <= 2:
			return "binomial"
		case e.Bytes >= tun.BcastPipelineMin:
			return "pipelined"
		default:
			return "scag"
		}
	case CollBarrier:
		return "dissemination"
	case CollAlltoall:
		return "pairwise"
	case CollGather:
		// The historical Gather entry point always ran the binomial
		// tree; the linear path was reached only by explicit callers.
		return "binomial"
	case CollScan:
		// The historical Scan was always recursive doubling.
		return "recdbl"
	}
	return ""
}

// available reports whether an entry can serve the call: an in-place
// call needs an exchange over already-placed blocks.
func (en *entry) available(e Env, inPlace bool) bool {
	if _, ok := en.run.(exchangeFn); inPlace && !ok {
		return false
	}
	return en.applies == nil || en.applies(e)
}

func findEntry(cl Collective, name string) *entry {
	ents := registry[cl]
	for i := range ents {
		if ents[i].name == name {
			return &ents[i]
		}
	}
	return nil
}

// pick resolves the algorithm for one call: a forced override first
// (falling back to the policy when it cannot serve the call), then the
// configured policy. PolicyMeasured probes the tuning cache and falls
// through to the PolicyCost minimization on a miss (reporting the miss
// through OnMiss so a background tuner can measure the point), so a
// measured-policy call never blocks. In both minimizing policies ties
// break by registration order: the strict `<` comparison keeps the
// first-registered of equal-cost candidates, which is load-bearing for
// bit-identical reruns (TestCostPolicyTieBreaksByRegistrationOrder
// pins it).
func pick(cl Collective, e Env, tun Tuning, inPlace bool) (*entry, error) {
	if name := tun.Force[cl]; name != "" {
		if en := findEntry(cl, name); en != nil && en.available(e, inPlace) {
			return en, nil
		}
	}
	if tun.Policy == PolicyMeasured {
		if tun.Lookup != nil {
			if name, ok := tun.Lookup(cl, e); ok {
				if en := findEntry(cl, name); en != nil && en.available(e, inPlace) {
					return en, nil
				}
			} else if tun.OnMiss != nil {
				tun.OnMiss(cl, e)
			}
		}
		// Miss (or no cache attached): the cost prior answers now.
	}
	if tun.Policy == PolicyCost || tun.Policy == PolicyMeasured {
		var best *entry
		var bestCost sim.Time
		ents := registry[cl]
		for i := range ents {
			en := &ents[i]
			if !en.available(e, inPlace) {
				continue
			}
			if c := en.cost(e); best == nil || c < bestCost {
				best, bestCost = en, c
			}
		}
		if best == nil {
			return nil, fmt.Errorf("coll: no applicable %s algorithm for comm size %d", cl, e.Size)
		}
		return best, nil
	}
	name := tableChoice(cl, e, inPlace)
	en := findEntry(cl, name)
	if en == nil || !en.available(e, inPlace) {
		return nil, fmt.Errorf("coll: table policy chose unavailable %s algorithm %q", cl, name)
	}
	return en, nil
}

// dispatch resolves the algorithm for one call on c and returns its
// runner as the family's signature F: the one place every entry point's
// selection passes through.
func dispatch[F any](c *mpi.Comm, cl Collective, e Env, inPlace bool) (run F, err error) {
	en, err := pick(cl, e, TuningFor(c), inPlace)
	if err != nil {
		return run, err
	}
	return en.run.(F), nil
}

// Registered reports whether an algorithm name exists for a collective.
func Registered(cl Collective, name string) bool { return findEntry(cl, name) != nil }

// Choose returns the name of the algorithm the engine would run for
// the described call under the given tuning — the introspection hook
// the selection tests and the bench coll-sweep build on.
func Choose(cl Collective, e Env, tun Tuning) (string, error) {
	en, err := pick(cl, e, tun, false)
	if err != nil {
		return "", err
	}
	return en.name, nil
}

// Candidate is one registered algorithm's view of a hypothetical call.
type Candidate struct {
	Name       string
	Applicable bool
	Est        sim.Time
}

// Candidates prices every registered algorithm of a collective at the
// described call (inapplicable entries carry Est 0).
func Candidates(cl Collective, e Env) []Candidate {
	ents := registry[cl]
	out := make([]Candidate, len(ents))
	for i := range ents {
		en := &ents[i]
		out[i] = Candidate{Name: en.name, Applicable: en.applies == nil || en.applies(e)}
		if out[i].Applicable {
			out[i].Est = en.cost(e)
		}
	}
	return out
}

// Lap is one candidate of a Race: the algorithm's name and the virtual
// makespan the raced body reached under it.
type Lap struct {
	Name string
	Time sim.Time
}

// Race times every registered algorithm of a collective that can serve
// the described call, in registration order, on one world: for each
// candidate it resets the clocks and runs body on every rank's world
// communicator forced to that algorithm (the communicator's own
// configuration is restored afterwards). ResetClocks also restarts the
// noise draws, so each lap equals a fresh world's run of the same body
// (the warm-world contract). Communicators the body derives inherit
// the force; where the candidate cannot serve a call (another size, the
// in-place form), the policy picks instead, as Tuning.Force does
// everywhere.
func Race(w *mpi.World, cl Collective, e Env, body func(*mpi.Comm) error) ([]Lap, error) {
	var laps []Lap
	ents := registry[cl]
	for i := range ents {
		en := &ents[i]
		if !en.available(e, false) {
			continue
		}
		forced := Tuning{Force: map[Collective]string{cl: en.name}}
		w.ResetClocks()
		err := w.Run(func(p *mpi.Proc) error {
			c := p.CommWorld()
			prev := c.CollConfig()
			c.SetCollConfig(forced)
			defer c.SetCollConfig(prev)
			return body(c)
		})
		if err != nil {
			return laps, fmt.Errorf("coll: racing %s %s: %w", cl, en.name, err)
		}
		laps = append(laps, Lap{Name: en.name, Time: w.MaxClock()})
	}
	return laps, nil
}
