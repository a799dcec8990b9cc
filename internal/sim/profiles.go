package sim

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// Machine profiles. The parameters are not calibrated against the real
// machines (which are unavailable); they are set to the published
// ballpark characteristics of the two systems in the paper so that the
// *shape* of every figure is produced by the same mechanisms the paper
// credits: network alpha/beta for inter-node traffic, shared-memory
// transport costs and memory-copy costs for intra-node traffic, and the
// MPI library's collective tuning cutoffs.

// HazelHenCray models a Cray XC40 node pair of Intel Haswell E5-2680v3
// (24 cores, 2.5 GHz) on the Aries dragonfly interconnect, driven by a
// Cray-MPI-like (MPICH-derived) collective tuning policy.
func HazelHenCray() *CostModel {
	return &CostModel{
		Name: "hazelhen-cray",

		// Aries: ~1.3 us latency, ~8.3 GB/s effective per-rank
		// bandwidth (120 ps/byte).
		NetAlpha:         1300 * Nanosecond,
		NetBetaPsPerByte: 120,

		// Shared-memory transport (CMA-like): ~0.4 us latency,
		// ~9 GB/s (110 ps/byte) — faster than the network at
		// every size, as on the real node.
		ShmAlpha:         700 * Nanosecond,
		ShmBetaPsPerByte: 110,

		// Plain load/store copies out of the shared segment:
		// ~8 GB/s single-threaded (125 ps/byte), 4 memory
		// channels' worth of copiers before saturation.
		MemAlpha:         80 * Nanosecond,
		MemBetaPsPerByte: 125,
		MemSaturation:    4,

		SendOverhead: 300 * Nanosecond,
		RecvOverhead: 300 * Nanosecond,
		EagerLimit:   8192,

		// Per-level refinements for multi-level topologies (numa and
		// socket sit inside the node; "group" is an Aries electrical
		// group, cheaper than the global dragonfly path). Two-level
		// topologies never produce these classes, so the defaults
		// stay bit-identical.
		LevelCosts: map[HopClass]LevelCost{
			HopNuma:   {Alpha: 350 * Nanosecond, BetaPsPerByte: 95},
			HopSocket: {Alpha: 500 * Nanosecond, BetaPsPerByte: 100},
			HopGroup:  {Alpha: 1000 * Nanosecond, BetaPsPerByte: 115},
		},

		// Sustained per-core DGEMM rate on Haswell.
		FlopsPerSecond: 8e9,

		Tuning: Tuning{
			// MPICH-style: logarithmic allgather until the
			// total result reaches 512 KiB, ring beyond.
			AllgatherShortMax: 512 << 10,
			// The irregular variant keeps the same logarithmic
			// cutoff (as MPICH's does) but pays vector-walking
			// setup and per-step block bookkeeping — the
			// "slightly inferior" of Fig. 8.
			AllgathervShortMax:    512 << 10,
			AllgathervStepPenalty: 300 * Nanosecond,
			AllgathervSetup:       1500 * Nanosecond,

			BcastShortMax:    12 << 10,
			BcastPipelineMin: 512 << 10,
			BcastChunk:       64 << 10,

			AllreduceShortMax: 2 << 10,
		},
	}
}

// VulcanOpenMPI models the NEC cluster "Vulcan": identical Haswell nodes
// (the paper states the node architecture matches Hazel Hen) connected
// by InfiniBand, driven by an OpenMPI-like tuning policy.
func VulcanOpenMPI() *CostModel {
	return &CostModel{
		Name: "vulcan-openmpi",

		// InfiniBand FDR-ish: ~1.7 us latency, ~6.2 GB/s
		// (160 ps/byte).
		NetAlpha:         1700 * Nanosecond,
		NetBetaPsPerByte: 160,

		ShmAlpha:         800 * Nanosecond,
		ShmBetaPsPerByte: 130,

		MemAlpha:         80 * Nanosecond,
		MemBetaPsPerByte: 125,
		MemSaturation:    4,

		SendOverhead: 350 * Nanosecond,
		RecvOverhead: 350 * Nanosecond,
		EagerLimit:   12288,

		// InfiniBand fat-tree: a "group" is one leaf switch, with
		// less locality benefit than Aries electrical groups.
		LevelCosts: map[HopClass]LevelCost{
			HopNuma:   {Alpha: 400 * Nanosecond, BetaPsPerByte: 100},
			HopSocket: {Alpha: 550 * Nanosecond, BetaPsPerByte: 110},
			HopGroup:  {Alpha: 1400 * Nanosecond, BetaPsPerByte: 150},
		},

		FlopsPerSecond: 8e9,

		Tuning: Tuning{
			// OpenMPI's decision map switches to ring earlier
			// than MPICH.
			AllgatherShortMax:     64 << 10,
			AllgathervShortMax:    64 << 10,
			AllgathervStepPenalty: 500 * Nanosecond,
			AllgathervSetup:       2000 * Nanosecond,

			BcastShortMax:    8 << 10,
			BcastPipelineMin: 256 << 10,
			BcastChunk:       32 << 10,

			AllreduceShortMax: 4 << 10,
		},
	}
}

// Laptop is a small, fast-to-simulate profile for examples and tests. It
// behaves like a commodity 2-node cluster over 10 GbE.
func Laptop() *CostModel {
	return &CostModel{
		Name:             "laptop",
		NetAlpha:         10 * Microsecond,
		NetBetaPsPerByte: 800, // 1.25 GB/s
		ShmAlpha:         300 * Nanosecond,
		ShmBetaPsPerByte: 150,
		MemAlpha:         60 * Nanosecond,
		MemBetaPsPerByte: 100,
		MemSaturation:    2,
		SendOverhead:     100 * Nanosecond,
		RecvOverhead:     100 * Nanosecond,
		EagerLimit:       4096,
		FlopsPerSecond:   1e10,
		Tuning: Tuning{
			AllgatherShortMax:     128 << 10,
			AllgathervShortMax:    128 << 10,
			AllgathervStepPenalty: 200 * Nanosecond,
			AllgathervSetup:       1000 * Nanosecond,
			BcastShortMax:         8 << 10,
			BcastPipelineMin:      256 << 10,
			BcastChunk:            32 << 10,
			AllreduceShortMax:     2 << 10,
		},
	}
}

// Profiles returns the registry of named machine profiles, keyed by the
// names accepted on the command line (-machine flag).
func Profiles() map[string]func() *CostModel {
	return map[string]func() *CostModel{
		"hazelhen-cray":  HazelHenCray,
		"vulcan-openmpi": VulcanOpenMPI,
		"laptop":         Laptop,
	}
}

// Profile instantiates the named machine profile. The error of an
// unknown name lists the registry, so every -machine flag says the same
// thing.
func Profile(name string) (*CostModel, error) {
	mk, ok := Profiles()[name]
	if !ok {
		names := slices.Sorted(maps.Keys(Profiles()))
		return nil, fmt.Errorf("unknown machine %q (profiles: %s)", name, strings.Join(names, ", "))
	}
	return mk(), nil
}
