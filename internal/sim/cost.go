package sim

import "fmt"

// HopClass classifies the path a message takes between two ranks. The
// class decides which latency/bandwidth pair of the cost model applies.
type HopClass int

const (
	// HopSelf is a rank talking to itself (pure memory traffic).
	HopSelf HopClass = iota
	// HopShm is an intra-node hop through the shared-memory transport.
	HopShm
	// HopNet is an inter-node hop through the interconnect.
	HopNet
	// HopNuma is a hop within one NUMA domain (inside the node level).
	// Without a per-level cost override it prices like HopShm.
	HopNuma
	// HopSocket is a hop within one socket (inside the node level).
	// Without a per-level cost override it prices like HopShm.
	HopSocket
	// HopGroup is a hop within one network group (electrical group,
	// cabinet — outside the node level). Without a per-level cost
	// override it prices like HopNet.
	HopGroup
)

// String names the hop class for traces and error messages.
func (h HopClass) String() string {
	switch h {
	case HopSelf:
		return "self"
	case HopShm:
		return "shm"
	case HopNet:
		return "net"
	case HopNuma:
		return "numa"
	case HopSocket:
		return "socket"
	case HopGroup:
		return "group"
	default:
		return fmt.Sprintf("HopClass(%d)", int(h))
	}
}

// SharedMemory reports whether the hop class stays within one node's
// load/store domain.
func (h HopClass) SharedMemory() bool {
	switch h {
	case HopSelf, HopShm, HopNuma, HopSocket:
		return true
	}
	return false
}

// LevelCost is the per-level latency/bandwidth override a profile may
// attach to the extended hop classes (HopNuma, HopSocket, HopGroup).
type LevelCost struct {
	Alpha         Time
	BetaPsPerByte int64
}

// Tuning holds the MPICH/OpenMPI-style runtime selection cutoffs that
// differ between the two library stacks of the paper (Cray MPI on Hazel
// Hen, OpenMPI on Vulcan). Sizes are in bytes.
type Tuning struct {
	// AllgatherShortMax: total receive size up to which a
	// logarithmic algorithm (recursive doubling / Bruck) is used for
	// MPI_Allgather; above it the ring algorithm runs.
	AllgatherShortMax int
	// AllgathervShortMax: same cutoff for MPI_Allgatherv. The v
	// variant is less aggressively tuned in real libraries ([29]);
	// keeping this smaller than AllgatherShortMax reproduces the
	// paper's Fig. 8 observation.
	AllgathervShortMax int
	// AllgathervStepPenalty is the extra per-step bookkeeping cost of
	// the irregular variant (displacement arrays, non-uniform
	// blocks).
	AllgathervStepPenalty Time
	// AllgathervSetup is the fixed per-call cost of the irregular
	// variant (walking the count/displacement vectors). MPI_Allgather
	// has no such vectors, which is part of why the v variant loses
	// at one process per node (paper Fig. 8, [29]).
	AllgathervSetup Time
	// BcastShortMax: message size up to which binomial-tree broadcast
	// is used; above it scatter+allgather runs.
	BcastShortMax int
	// BcastPipelineMin: message size from which the pipelined
	// broadcast path is preferred.
	BcastPipelineMin int
	// BcastChunk is the pipeline chunk size for large broadcasts.
	BcastChunk int
	// AllreduceShortMax: size up to which recursive doubling is used
	// for allreduce; above it Rabenseifner's algorithm runs.
	AllreduceShortMax int
}

// CostModel parameterizes the virtual machine: a LogGP-style model with
// distinct latency (alpha) and inverse bandwidth (beta) per hop class,
// memory-copy costs with a saturation-based contention term, a CPU rate
// for modeled compute, and the library tuning cutoffs.
type CostModel struct {
	// Name identifies the profile ("hazelhen-cray", "vulcan-openmpi").
	Name string

	// NetAlpha is the inter-node latency per message.
	NetAlpha Time
	// NetBetaPsPerByte is the inter-node transfer cost per byte.
	NetBetaPsPerByte int64
	// ShmAlpha is the intra-node (shared-memory transport) latency.
	ShmAlpha Time
	// ShmBetaPsPerByte is the intra-node transfer cost per byte.
	ShmBetaPsPerByte int64

	// MemAlpha is the fixed cost of initiating a local memory copy.
	MemAlpha Time
	// MemBetaPsPerByte is the local copy cost per byte at full
	// bandwidth.
	MemBetaPsPerByte int64
	// MemSaturation is the number of concurrent on-node copiers the
	// memory system sustains before bandwidth is divided among them.
	// A node with 4 memory channels keeps per-copier bandwidth flat
	// up to ~4 copiers and degrades linearly beyond.
	MemSaturation int

	// SendOverhead/RecvOverhead are the CPU costs of posting a send
	// or completing a receive (the o of LogGP).
	SendOverhead Time
	RecvOverhead Time

	// EagerLimit is the message size (bytes) up to which sends
	// complete without waiting for the receiver (eager protocol);
	// larger messages rendezvous.
	EagerLimit int

	// LevelCosts carries optional per-level latency/bandwidth pairs
	// for the extended hop classes of multi-level topologies
	// (HopNuma, HopSocket, HopGroup). A class without an entry falls
	// back to the shm pair (classes inside the node) or the net pair
	// (classes outside it), so single-node-level topologies and
	// profiles without overrides price bit-identically to the
	// historical two-level model.
	LevelCosts map[HopClass]LevelCost

	// FlopsPerSecond is the modeled per-core compute rate used by the
	// application kernels (SUMMA, BPMF) to charge virtual time for
	// arithmetic.
	FlopsPerSecond float64

	// Tuning carries the collective algorithm selection policy of the
	// MPI library this profile imitates.
	Tuning Tuning
}

// Validate reports a configuration error if the model is unusable.
func (m *CostModel) Validate() error {
	switch {
	case m == nil:
		return fmt.Errorf("sim: nil cost model")
	case m.NetBetaPsPerByte < 0 || m.ShmBetaPsPerByte < 0 || m.MemBetaPsPerByte < 0:
		return fmt.Errorf("sim: cost model %q has negative bandwidth term", m.Name)
	case m.NetAlpha < 0 || m.ShmAlpha < 0 || m.MemAlpha < 0:
		return fmt.Errorf("sim: cost model %q has negative latency term", m.Name)
	case m.MemSaturation < 1:
		return fmt.Errorf("sim: cost model %q has MemSaturation %d < 1", m.Name, m.MemSaturation)
	case m.FlopsPerSecond <= 0:
		return fmt.Errorf("sim: cost model %q has non-positive flop rate", m.Name)
	case m.EagerLimit < 0:
		return fmt.Errorf("sim: cost model %q has negative eager limit", m.Name)
	}
	for class, lc := range m.LevelCosts {
		if lc.Alpha < 0 || lc.BetaPsPerByte < 0 {
			return fmt.Errorf("sim: cost model %q has negative %s level cost", m.Name, class)
		}
	}
	return nil
}

// Alpha returns the per-message latency for a hop class.
func (m *CostModel) Alpha(class HopClass) Time {
	if lc, ok := m.LevelCosts[class]; ok {
		return lc.Alpha
	}
	switch class {
	case HopNet, HopGroup:
		return m.NetAlpha
	case HopShm, HopNuma, HopSocket:
		return m.ShmAlpha
	default:
		return m.MemAlpha
	}
}

// BetaPsPerByte returns the per-byte transfer cost for a hop class.
func (m *CostModel) BetaPsPerByte(class HopClass) int64 {
	if lc, ok := m.LevelCosts[class]; ok {
		return lc.BetaPsPerByte
	}
	switch class {
	case HopNet, HopGroup:
		return m.NetBetaPsPerByte
	case HopShm, HopNuma, HopSocket:
		return m.ShmBetaPsPerByte
	default:
		return m.MemBetaPsPerByte
	}
}

// XferCost returns the wire time of an n-byte message on the given hop
// class: alpha + n*beta. Overheads are charged separately by the p2p
// engine so that they can overlap with transfers.
func (m *CostModel) XferCost(class HopClass, n int) Time {
	if n < 0 {
		n = 0
	}
	return m.Alpha(class) + Time(int64(n)*m.BetaPsPerByte(class))
}

// CopyCost returns the time for one rank to copy n bytes locally while
// `concurrent` ranks on the same node are copying at the same moment.
// Contention is modeled deterministically: the caller (a collective
// phase) states the concurrency level instead of the simulator observing
// races, so results do not depend on host scheduling.
func (m *CostModel) CopyCost(n, concurrent int) Time {
	if n <= 0 {
		return m.MemAlpha
	}
	if concurrent < 1 {
		concurrent = 1
	}
	factor := int64(1)
	if concurrent > m.MemSaturation {
		// Per-copier bandwidth degrades linearly once the memory
		// system saturates.
		factor = int64((concurrent + m.MemSaturation - 1) / m.MemSaturation)
	}
	return m.MemAlpha + Time(int64(n)*m.MemBetaPsPerByte*factor)
}

// ComputeCost converts a flop count into virtual CPU time.
func (m *CostModel) ComputeCost(flops float64) Time {
	if flops <= 0 {
		return 0
	}
	return Time(flops / m.FlopsPerSecond * float64(Second))
}

// Eager reports whether an n-byte message uses the eager protocol.
func (m *CostModel) Eager(n int) bool { return n <= m.EagerLimit }

// Log2Ceil returns ceil(log2(n)) for n >= 1 (0 for smaller) — the
// round count of the logarithmic collective algorithms, used by the
// selection engine's cost estimates.
func Log2Ceil(n int) int {
	k := 0
	for p := 1; p < n; p <<= 1 {
		k++
	}
	return k
}
