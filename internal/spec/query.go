package spec

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"repro/internal/coll"
	"repro/internal/sim"
)

// Topology declares the simulated machine shape. Three input forms are
// accepted — the nodes x ppn shorthand, an explicit uniform level
// stack (per-leaf ranks plus levels, innermost first), or a per-node
// rank list — and canonicalization rewrites the shorthand and any
// uniform rank list into the stack form, so a canonical Topology
// carries either PerLeaf and Levels or an irregular NodeSizes.
type Topology struct {
	// Nodes and PPN are the single-level shorthand: Nodes nodes of PPN
	// ranks. Mutually exclusive with PerLeaf/Levels; cleared by
	// canonicalization.
	Nodes int `json:"nodes,omitempty"`
	// PPN is the ranks-per-node half of the shorthand.
	PPN int `json:"ppn,omitempty"`
	// PerLeaf is the number of ranks per innermost group of the
	// canonical stack form.
	PerLeaf int `json:"per_leaf,omitempty"`
	// Levels is the uniform level stack, innermost first, e.g.
	// [{socket 2} {node 64}] for 64 nodes of 2 sockets: Arity groups of
	// a level per group of the next, the outermost level's Arity its
	// total group count. Exactly one level is "node" (the shared-memory
	// boundary).
	Levels []sim.LevelDim `json:"levels,omitempty"`
	// NodeSizes lists the ranks of each node, placed SMP-style, for
	// irregular machines such as Fig. 10's 42x24 + 1x16. Mutually
	// exclusive with the other two forms.
	NodeSizes []int `json:"node_sizes,omitempty"`
}

// maxRanks bounds the total rank count a Query may declare — a
// validation backstop against arithmetic overflow and absurd worlds;
// the service layer applies its own (much lower) per-engine caps.
const maxRanks = 1 << 27

// Canonicalize validates the topology and rewrites the nodes x ppn
// shorthand and a uniform node_sizes list into the canonical stack
// form. Idempotent.
func (t *Topology) Canonicalize() error {
	shorthand := t.Nodes != 0 || t.PPN != 0
	stack := t.PerLeaf != 0 || len(t.Levels) != 0
	switch {
	case shorthand && stack || (shorthand || stack) && t.NodeSizes != nil:
		return fmt.Errorf("spec: topology declares more than one of nodes/ppn, per_leaf/levels and node_sizes")
	case t.NodeSizes != nil:
		if t.Ranks() <= 0 {
			return fmt.Errorf("spec: topology node_sizes needs at least one node, every node at least one rank, and at most %d ranks in all", maxRanks)
		}
		if !slices.ContainsFunc(t.NodeSizes, func(n int) bool { return n != t.NodeSizes[0] }) { // uniform
			t.PerLeaf, t.Levels, t.NodeSizes = t.NodeSizes[0], []sim.LevelDim{{Name: sim.NodeLevelName, Arity: len(t.NodeSizes)}}, nil
		}
	case shorthand:
		if t.Nodes <= 0 || t.PPN <= 0 {
			return fmt.Errorf("spec: topology needs nodes>0 and ppn>0, got %dx%d", t.Nodes, t.PPN)
		}
		t.PerLeaf, t.Levels = t.PPN, []sim.LevelDim{{Name: sim.NodeLevelName, Arity: t.Nodes}}
		t.Nodes, t.PPN = 0, 0
	case stack:
		if t.PerLeaf <= 0 || len(t.Levels) == 0 {
			return fmt.Errorf("spec: topology stack needs per_leaf>0 and at least one level")
		}
		node := 0
		for i, l := range t.Levels {
			if l.Name == "" {
				return fmt.Errorf("spec: topology level %d has no name", i)
			}
			if l.Arity <= 0 || l.Arity > maxRanks {
				return fmt.Errorf("spec: topology level %q needs arity in [1, %d], got %d", l.Name, maxRanks, l.Arity)
			}
			if l.Name == sim.NodeLevelName {
				node++
			}
			for _, prev := range t.Levels[:i] {
				if prev.Name == l.Name {
					return fmt.Errorf("spec: duplicate topology level %q", l.Name)
				}
			}
		}
		if node != 1 {
			return fmt.Errorf("spec: topology needs exactly one %q level, got %d", sim.NodeLevelName, node)
		}
	default:
		return fmt.Errorf("spec: topology is empty (give nodes+ppn, per_leaf+levels or node_sizes)")
	}
	if t.Ranks() <= 0 {
		return fmt.Errorf("spec: topology declares more than %d ranks", maxRanks)
	}
	return nil
}

// Ranks returns the total rank count of a canonicalized topology, or
// -1 when the total leaves (0, maxRanks]. Each multiply and add is
// overflow-checked against the cap first, so a crafted arity or node
// size cannot wrap the total back into range.
func (t *Topology) Ranks() int {
	if t.NodeSizes != nil {
		total := 0
		for _, n := range t.NodeSizes {
			if n <= 0 || n > maxRanks-total {
				return -1
			}
			total += n
		}
		return cmp.Or(total, -1)
	}
	total := t.PerLeaf
	if total <= 0 || total > maxRanks {
		return -1
	}
	for _, l := range t.Levels {
		if l.Arity <= 0 || l.Arity > maxRanks/total {
			return -1
		}
		total *= l.Arity
	}
	return total
}

// Build materializes the canonical topology through the interned
// sim.Topology constructors.
func (t *Topology) Build() (*sim.Topology, error) {
	if t.NodeSizes != nil {
		return sim.NewTopology(t.NodeSizes)
	}
	return sim.UniformHier(t.PerLeaf, t.Levels...)
}

// Query is the declarative description of one what-if run: everything
// needed to reproduce it bit-identically via CLI, HTTP or a test
// harness. See Parse for the strict JSON decoding rules and
// Canonicalize for the normal form behind Fingerprint.
type Query struct {
	// Machine names the cost-model profile (sim.Profiles): one of
	// "hazelhen-cray", "vulcan-openmpi", "laptop".
	Machine string `json:"machine"`
	// Topology is the simulated machine shape.
	Topology Topology `json:"topology"`
	// Collective names the operation: allgather, allgatherv,
	// allreduce, reduce, bcast, barrier, alltoall, gather or scan.
	Collective string `json:"collective"`
	// Sizes is the message-size ladder in bytes, one simulated point
	// per entry: the per-rank block for allgather, allgatherv,
	// alltoall and gather; the whole payload for bcast and the
	// reducing collectives (rounded down to whole float64 elements);
	// ignored for barrier (canonicalized to [0]).
	Sizes []int `json:"sizes"`
	// Iters is how many back-to-back operations each point runs
	// (default 1). Virtual times in the Result are exact totals over
	// Iters operations.
	Iters int `json:"iters,omitempty"`
	// Engine selects the execution backend: "goroutine" (default) or
	// "event".
	Engine string `json:"engine,omitempty"`
	// Fold selects rank-symmetry folding: "auto" (default; fold on the
	// event engine whenever the coll fold helpers approve the
	// workload), "off", or an explicit positive fold unit. The hybrid
	// allgather always runs unfolded.
	Fold string `json:"fold,omitempty"`
	// Tuning configures the collective selection engine.
	Tuning Tuning `json:"tuning"`
	// Noise configures deterministic noise and fault injection (seeded
	// jitter, stragglers, link congestion, scheduled rank failures).
	// Absent means a clean world; an all-zero block canonicalizes to
	// absent, keeping noise-free fingerprints stable.
	Noise *sim.Noise `json:"noise,omitempty"`
}

// maxSizeBytes bounds one ladder entry (1 GiB per rank).
const maxSizeBytes = 1 << 30

// maxIters bounds the per-point repetition count.
const maxIters = 1 << 20

// blockPerRank reports whether cl's buffers hold one ladder-size block
// per rank (runOps sizes them b × ranks). Where int is 32 bits that
// product passes math.MaxInt inside the (0, maxSizeBytes] ladder.
func blockPerRank(cl coll.Collective) bool {
	switch cl {
	case coll.CollAllgather, coll.CollAllgatherv, coll.CollAlltoall, coll.CollGather:
		return true
	}
	return false
}

// Parse strictly decodes a Query from JSON — unknown fields and
// trailing data are rejected — and canonicalizes it.
func Parse(data []byte) (*Query, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	q := &Query{}
	if err := dec.Decode(q); err != nil {
		return nil, fmt.Errorf("spec: parse query: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err == nil || len(trailing) > 0 {
		return nil, fmt.Errorf("spec: trailing data after query")
	}
	if err := q.Canonicalize(); err != nil {
		return nil, err
	}
	return q, nil
}

// Canonicalize validates the query and rewrites it into its canonical
// normal form: topology in stack form, defaults made explicit (engine
// "goroutine", fold "auto", iters 1, policy "table"), and the size
// ladder sorted ascending with duplicates removed. Canonicalize is
// idempotent; Fingerprint and the service cache key are defined over
// the canonical form.
func (q *Query) Canonicalize() error {
	if q.Machine == "" {
		return fmt.Errorf("spec: query needs a machine")
	}
	if _, ok := sim.Profiles()[q.Machine]; !ok {
		return fmt.Errorf("spec: unknown machine %q", q.Machine)
	}
	if err := q.Topology.Canonicalize(); err != nil {
		return err
	}
	cl, err := coll.ParseCollective(q.Collective)
	if err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if _, ok := flatCalls[cl]; !ok {
		return fmt.Errorf("spec: collective %q is not expressible in a query", q.Collective)
	}
	if cl == coll.CollBarrier {
		q.Sizes = []int{0}
	} else {
		if len(q.Sizes) == 0 {
			return fmt.Errorf("spec: query needs a non-empty size ladder")
		}
		sizes := append([]int(nil), q.Sizes...)
		sort.Ints(sizes)
		out, ranks := sizes[:0], q.Topology.Ranks()
		for i, b := range sizes {
			if b <= 0 || b > maxSizeBytes {
				return fmt.Errorf("spec: size %d out of range (0, %d]", b, maxSizeBytes)
			}
			if blockPerRank(cl) && b > math.MaxInt/ranks {
				return fmt.Errorf("spec: %s of %d bytes per rank on %d ranks needs a buffer larger than the %d bytes an int addresses here", cl, b, ranks, math.MaxInt)
			}
			if i == 0 || b != sizes[i-1] {
				out = append(out, b)
			}
		}
		q.Sizes = out
	}
	if q.Iters == 0 {
		q.Iters = 1
	}
	if q.Iters < 1 || q.Iters > maxIters {
		return fmt.Errorf("spec: iters %d out of range [1, %d]", q.Iters, maxIters)
	}
	if q.Engine == "" {
		q.Engine = sim.EngineGoroutine.String()
	}
	if _, err := sim.ParseEngine(q.Engine); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	switch q.Fold {
	case "":
		q.Fold = "auto"
	case "auto", "off":
	default:
		u, err := strconv.Atoi(q.Fold)
		if err != nil || u <= 0 {
			return fmt.Errorf("spec: fold %q is not auto, off or a positive unit", q.Fold)
		}
		q.Fold = strconv.Itoa(u)
	}
	if q.Noise, err = canonicalNoise(q.Noise, q.Topology.Ranks()); err != nil {
		return err
	}
	// Asymmetric noise (jitter, stragglers, failures) invalidates
	// rank-symmetry folding, and no fold helper covers the hybrid
	// scheme; "auto" quietly resolves to unfolded, but an explicit unit
	// is a contradiction worth rejecting here rather than at world
	// construction.
	if unit := q.Fold != "auto" && q.Fold != "off"; unit && q.Noise.BreaksSymmetry() {
		return fmt.Errorf("spec: fold %q incompatible with noise that breaks rank symmetry", q.Fold)
	} else if unit && q.Tuning.hybrid(cl) {
		return fmt.Errorf("spec: fold %q incompatible with allgather=hybrid, which runs unfolded", q.Fold)
	}
	return q.Tuning.Canonicalize()
}

// CanonicalJSON returns the canonical JSON encoding of the query: the
// canonicalized form marshaled with the fixed field order of the Query
// struct (object keys in Force maps sort lexically under
// encoding/json). Two queries describing the same run byte-compare
// equal here; Fingerprint hashes exactly these bytes.
func (q *Query) CanonicalJSON() ([]byte, error) {
	c := *q
	c.Sizes = append([]int(nil), q.Sizes...)
	c.Topology.Levels = slices.Clone(q.Topology.Levels)
	if err := c.Canonicalize(); err != nil {
		return nil, err
	}
	return json.Marshal(&c)
}

// Fingerprint returns the stable identity of the run the query
// describes: the hex SHA-256 of its canonical JSON. The service layer
// keys its result cache and request coalescing on it.
func (q *Query) Fingerprint() (string, error) {
	data, err := q.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Model instantiates the query's machine profile.
func (q *Query) Model() (*sim.CostModel, error) {
	model, err := sim.Profile(q.Machine)
	if err != nil {
		return nil, fmt.Errorf("spec: unknown machine %q", q.Machine)
	}
	return model, nil
}
