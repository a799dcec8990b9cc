package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/coll"
	"repro/internal/sim"
)

// Level is one uniform nesting level of a Topology stack: Arity groups
// of this level per group of the next (outer) level; the outermost
// level's Arity is its total group count (sim.LevelDim).
type Level struct {
	// Name is the level's name; exactly one level must be "node" (the
	// shared-memory boundary).
	Name string `json:"name"`
	// Arity is the number of groups of this level per outer group.
	Arity int `json:"arity"`
}

// Topology declares the simulated machine shape. Two input forms are
// accepted — the nodes x ppn shorthand, or an explicit uniform level
// stack (per-leaf ranks plus levels, innermost first) — and
// canonicalization rewrites the shorthand into the stack form, so a
// canonical Topology always carries PerLeaf and Levels only.
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
	// [{socket 2} {node 64}] for 64 nodes of 2 sockets.
	Levels []Level `json:"levels,omitempty"`
}

// maxRanks bounds the total rank count a Query may declare — a
// validation backstop against arithmetic overflow and absurd worlds;
// the service layer applies its own (much lower) per-engine caps.
const maxRanks = 1 << 27

// Canonicalize validates the topology and rewrites the nodes x ppn
// shorthand into the canonical stack form. Idempotent.
func (t *Topology) Canonicalize() error {
	shorthand := t.Nodes != 0 || t.PPN != 0
	stack := t.PerLeaf != 0 || len(t.Levels) != 0
	switch {
	case shorthand && stack:
		return fmt.Errorf("spec: topology declares both nodes/ppn and per_leaf/levels")
	case shorthand:
		if t.Nodes <= 0 || t.PPN <= 0 {
			return fmt.Errorf("spec: topology needs nodes>0 and ppn>0, got %dx%d", t.Nodes, t.PPN)
		}
		t.PerLeaf, t.Levels = t.PPN, []Level{{Name: sim.NodeLevelName, Arity: t.Nodes}}
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
		return fmt.Errorf("spec: topology is empty (give nodes+ppn or per_leaf+levels)")
	}
	if t.Ranks() <= 0 {
		return fmt.Errorf("spec: topology declares more than %d ranks", maxRanks)
	}
	return nil
}

// Ranks returns the total rank count of a canonicalized topology, or
// -1 when the product leaves (0, maxRanks]. Each multiply is
// overflow-checked against the cap first, so a crafted arity cannot
// wrap the total back into range.
func (t *Topology) Ranks() int {
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
// sim.Topology constructor.
func (t *Topology) Build() (*sim.Topology, error) {
	dims := make([]sim.LevelDim, len(t.Levels))
	for i, l := range t.Levels {
		dims[i] = sim.LevelDim{Name: l.Name, Arity: l.Arity}
	}
	return sim.UniformHier(t.PerLeaf, dims...)
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
	// (Neighborhood collectives need a process topology, which a Query
	// cannot yet express.)
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
	// workload), "off", or an explicit positive fold unit.
	Fold string `json:"fold,omitempty"`
	// Tuning configures the collective selection engine.
	Tuning Tuning `json:"tuning"`
	// Noise configures deterministic noise and fault injection (seeded
	// jitter, stragglers, link congestion, scheduled rank failures).
	// Absent means a clean world; an all-zero block canonicalizes to
	// absent, keeping noise-free fingerprints stable.
	Noise *Noise `json:"noise,omitempty"`
}

// maxSizeBytes bounds one ladder entry (1 GiB per rank).
const maxSizeBytes = 1 << 30

// maxIters bounds the per-point repetition count.
const maxIters = 1 << 20

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
		out := sizes[:0]
		for i, b := range sizes {
			if b <= 0 || b > maxSizeBytes {
				return fmt.Errorf("spec: size %d out of range (0, %d]", b, maxSizeBytes)
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
	noise, err := q.Noise.canonicalize(q.Topology.Ranks())
	if err != nil {
		return err
	}
	q.Noise = noise
	if q.Noise.BreaksSymmetry() && q.Fold != "auto" && q.Fold != "off" {
		// Asymmetric noise (jitter, stragglers, failures) invalidates
		// rank-symmetry folding; "auto" quietly resolves to unfolded,
		// but an explicit unit is a contradiction worth rejecting here
		// rather than at world construction.
		return fmt.Errorf("spec: fold %q incompatible with noise that breaks rank symmetry", q.Fold)
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
	c.Topology.Levels = append([]Level(nil), q.Topology.Levels...)
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
