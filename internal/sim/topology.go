package sim

import (
	"fmt"
	"strings"
)

// Topology describes how ranks are laid out over the machine hierarchy:
// an ordered list of nesting levels (e.g. numa ⊂ socket ⊂ node ⊂ group),
// innermost first, each partitioning the ranks into contiguous groups.
// Groups may hold different numbers of ranks (the paper's Fig. 10
// "irregularly populated nodes" case needs exactly that, and the same
// irregularity is allowed at every level).
//
// Exactly one level is the "node" level: the shared-memory boundary that
// decides window placement, the barrier fast path and flag signalling.
// Levels inside it (numa, socket) refine the on-node cost structure;
// levels outside it (electrical group, cabinet) refine the network.
type Topology struct {
	levels  []level // innermost first
	nodeIdx int     // index of the node level within levels
	total   int
	fp      uint64 // structural fingerprint, computed at build time
}

// level is one materialized nesting level.
type level struct {
	name  string
	class HopClass
	sizes []int // group -> ranks in group
	base  []int // group -> global rank of its first (leader) rank
	group []int // global rank -> group index
	local []int // global rank -> local rank within its group
}

// LevelSpec declares one nesting level for NewHierTopology. Sizes are
// the per-group rank counts in group order; groups are laid out
// contiguously (SMP-style placement, the paper's stated assumption).
// Class zero (HopSelf) selects an automatic class: by name for the
// conventional levels (numa, socket, node, group), otherwise HopShm for
// levels inside the node and HopNet outside it.
type LevelSpec struct {
	Name  string
	Class HopClass
	Sizes []int
}

// NodeLevelName is the reserved level name marking the shared-memory
// boundary.
const NodeLevelName = "node"

// autoClass resolves the default hop class of a named level relative to
// the node level.
func autoClass(name string, insideNode bool) HopClass {
	switch name {
	case "numa":
		return HopNuma
	case "socket":
		return HopSocket
	case NodeLevelName:
		return HopShm
	case "group":
		return HopGroup
	}
	if insideNode {
		return HopShm
	}
	return HopNet
}

// buildLevel materializes the per-rank tables of one level.
func buildLevel(name string, class HopClass, sizes []int) (level, int, error) {
	l := level{
		name:  name,
		class: class,
		sizes: append([]int(nil), sizes...),
		base:  make([]int, len(sizes)),
	}
	total := 0
	for g, sz := range sizes {
		if sz <= 0 {
			return level{}, 0, fmt.Errorf("sim: %s group %d has %d ranks; every group needs at least one", name, g, sz)
		}
		l.base[g] = total
		for local := 0; local < sz; local++ {
			l.group = append(l.group, g)
			l.local = append(l.local, local)
		}
		total += sz
	}
	return l, total, nil
}

// NewHierTopology builds a multi-level topology from level specs ordered
// innermost first (numa before socket before node ...). Exactly one
// level must be named "node". Every level must cover the same rank
// count, and each inner group must nest inside exactly one outer group.
func NewHierTopology(specs []LevelSpec) (*Topology, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sim: topology needs at least one level")
	}
	nodeIdx := -1
	for i, s := range specs {
		if s.Name == "" {
			return nil, fmt.Errorf("sim: level %d has no name", i)
		}
		if s.Name == NodeLevelName {
			if nodeIdx >= 0 {
				return nil, fmt.Errorf("sim: topology declares two node levels")
			}
			nodeIdx = i
		}
		for j := 0; j < i; j++ {
			if specs[j].Name == s.Name {
				return nil, fmt.Errorf("sim: duplicate level name %q", s.Name)
			}
		}
	}
	if nodeIdx < 0 {
		return nil, fmt.Errorf("sim: topology needs a level named %q", NodeLevelName)
	}

	// Resolve the effective hop classes, then consult the intern cache
	// before materializing any per-rank tables: sweeps rebuild the same
	// handful of shapes for every measured world, and a hit skips the
	// whole build.
	classes := make([]HopClass, len(specs))
	for i, s := range specs {
		classes[i] = s.Class
		if classes[i] == HopSelf {
			classes[i] = autoClass(s.Name, i < nodeIdx)
		}
	}
	if t := lookupInternedTopology(specs, classes); t != nil {
		return t, nil
	}

	t := &Topology{nodeIdx: nodeIdx}
	for i, s := range specs {
		class := classes[i]
		l, total, err := buildLevel(s.Name, class, s.Sizes)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			t.total = total
		} else if total != t.total {
			return nil, fmt.Errorf("sim: level %q covers %d ranks, level %q covers %d",
				s.Name, total, specs[0].Name, t.total)
		}
		t.levels = append(t.levels, l)
	}

	// Nesting: every inner-level group boundary set must contain every
	// outer boundary (an outer group is a union of whole inner groups).
	for i := 1; i < len(t.levels); i++ {
		inner, outer := &t.levels[i-1], &t.levels[i]
		for _, b := range outer.base {
			if inner.local[b] != 0 {
				return nil, fmt.Errorf("sim: level %q group boundary at rank %d splits a %q group",
					outer.name, b, inner.name)
			}
		}
		if len(outer.sizes) > len(inner.sizes) {
			return nil, fmt.Errorf("sim: level %q has more groups (%d) than inner level %q (%d)",
				outer.name, len(outer.sizes), inner.name, len(inner.sizes))
		}
	}
	t.fp = t.fingerprint()
	return internTopology(t), nil
}

// topoIntern holds the canonical instance of each topology shape:
// rebuilding the same shape (as sweeps do for every measured world)
// hands back the shared immutable object instead of fresh per-rank
// tables, and downstream geometry caches hit their pointer-equality
// fast path.
var topoIntern = NewShapeCache[*Topology](256)

func internTopology(t *Topology) *Topology {
	v, _ := topoIntern.GetOrBuild(t.fp, t.EqualStructure, func() (*Topology, error) { return t, nil })
	return v
}

// lookupInternedTopology checks the intern cache against raw specs
// (with resolved classes) so a hit avoids building the per-rank tables
// at all. Only valid topologies are interned, and a spec that matches
// one level-for-level is necessarily valid itself.
func lookupInternedTopology(specs []LevelSpec, classes []HopClass) *Topology {
	h := HashSeed
	for i, s := range specs {
		h = hashLevelInto(h, s.Name, classes[i], s.Sizes)
	}
	t, ok := topoIntern.Lookup(h, func(o *Topology) bool {
		if len(o.levels) != len(specs) {
			return false
		}
		for i := range specs {
			l := &o.levels[i]
			if l.name != specs[i].Name || l.class != classes[i] || len(l.sizes) != len(specs[i].Sizes) {
				return false
			}
			for g, sz := range specs[i].Sizes {
				if l.sizes[g] != sz {
					return false
				}
			}
		}
		return true
	})
	if !ok {
		return nil
	}
	return t
}

// hashLevelInto folds one level's identity (name, class, group sizes)
// into a running hash. Both the built-topology fingerprint and the
// spec-side intern lookup go through this single mixer — they must stay
// byte-identical, or interning silently stops hitting and every world
// builds duplicate canonical topologies.
func hashLevelInto(h uint64, name string, class HopClass, sizes []int) uint64 {
	mix := func(v uint64) uint64 {
		return (h ^ v) * 1099511628211
	}
	for _, c := range []byte(name) {
		h = mix(uint64(c))
	}
	h = mix(uint64(class) + 1)
	for _, sz := range sizes {
		h = mix(uint64(sz))
	}
	return mix(0xfe) // level separator
}

// fingerprint hashes the structure (level names, classes, group sizes)
// with FNV-1a. Topologies are immutable after construction, so the
// value is computed once. Two topologies with equal structure describe
// identical rank layouts — the per-rank tables are derived from the
// sizes deterministically — which is what lets worlds of the same shape
// share cached communicator geometry (see internal/mpi, internal/coll).
func (t *Topology) fingerprint() uint64 {
	h := HashSeed
	for i := range t.levels {
		l := &t.levels[i]
		h = hashLevelInto(h, l.name, l.class, l.sizes)
	}
	return h
}

// Fingerprint returns the topology's structural hash. Use
// EqualStructure to confirm a match exactly: the fingerprint only
// selects cache buckets.
func (t *Topology) Fingerprint() uint64 { return t.fp }

// EqualStructure reports whether two topologies declare the same level
// stack (names, hop classes and per-group rank counts, in order) and
// therefore lay ranks out identically.
func (t *Topology) EqualStructure(o *Topology) bool {
	if t == o {
		return true
	}
	if o == nil || len(t.levels) != len(o.levels) || t.total != o.total || t.nodeIdx != o.nodeIdx {
		return false
	}
	for i := range t.levels {
		a, b := &t.levels[i], &o.levels[i]
		if a.name != b.name || a.class != b.class || len(a.sizes) != len(b.sizes) {
			return false
		}
		for g := range a.sizes {
			if a.sizes[g] != b.sizes[g] {
				return false
			}
		}
	}
	return true
}

// NewTopology builds a single-level (node-only) topology from the number
// of ranks on each node, with SMP-style placement: ranks
// 0..nodeSizes[0]-1 on node 0, and so on. This matches the paper's
// default rank placement assumption (Sect. 4); other placements are
// layered on top by internal/hybrid using the node-sorted global rank
// array technique from Sect. 6.
func NewTopology(nodeSizes []int) (*Topology, error) {
	if len(nodeSizes) == 0 {
		return nil, fmt.Errorf("sim: topology needs at least one node")
	}
	return NewHierTopology([]LevelSpec{{Name: NodeLevelName, Sizes: nodeSizes}})
}

// LevelDim sizes one uniform level for UniformHier: Arity groups of this
// level per group of the next (outer) level; the outermost level's Arity
// is its total group count. The JSON form is one level of a
// spec.Topology stack.
type LevelDim struct {
	Name  string `json:"name"`
	Arity int    `json:"arity"`
}

// UniformHier builds a regular multi-level topology: perLeaf ranks per
// innermost group, with dims ordered innermost first. For example
//
//	UniformHier(6, LevelDim{"socket", 2}, LevelDim{"node", 4})
//
// is 4 nodes of 2 sockets of 6 ranks (48 ranks).
func UniformHier(perLeaf int, dims ...LevelDim) (*Topology, error) {
	if perLeaf <= 0 || len(dims) == 0 {
		return nil, fmt.Errorf("sim: uniform hierarchy needs perLeaf>0 and at least one level")
	}
	specs := make([]LevelSpec, len(dims))
	ranksPer := perLeaf
	for _, d := range dims {
		if d.Arity <= 0 {
			return nil, fmt.Errorf("sim: level %q needs arity>0, got %d", d.Name, d.Arity)
		}
	}
	for i, d := range dims {
		// Level i has arity_i * arity_{i+1} * ... groups of ranksPer ranks.
		cnt := d.Arity
		for _, o := range dims[i+1:] {
			cnt *= o.Arity
		}
		sizes := make([]int, cnt)
		for g := range sizes {
			sizes[g] = ranksPer
		}
		specs[i] = LevelSpec{Name: d.Name, Sizes: sizes}
		ranksPer *= d.Arity
	}
	return NewHierTopology(specs)
}

// Uniform builds a regular single-level topology of nodes*ppn ranks.
func Uniform(nodes, ppn int) (*Topology, error) {
	if nodes <= 0 || ppn <= 0 {
		return nil, fmt.Errorf("sim: uniform topology needs nodes>0 and ppn>0, got %d x %d", nodes, ppn)
	}
	sizes := make([]int, nodes)
	for i := range sizes {
		sizes[i] = ppn
	}
	return NewTopology(sizes)
}

// MustUniform is Uniform for static configurations known to be valid.
func MustUniform(nodes, ppn int) *Topology {
	t, err := Uniform(nodes, ppn)
	if err != nil {
		panic(err)
	}
	return t
}

// MustUniformHier is UniformHier for static configurations known to be
// valid.
func MustUniformHier(perLeaf int, dims ...LevelDim) *Topology {
	t, err := UniformHier(perLeaf, dims...)
	if err != nil {
		panic(err)
	}
	return t
}

// Size returns the total number of ranks.
func (t *Topology) Size() int { return t.total }

// NumLevels returns the number of declared nesting levels.
func (t *Topology) NumLevels() int { return len(t.levels) }

// NodeLevel returns the index of the node (shared-memory) level.
func (t *Topology) NodeLevel() int { return t.nodeIdx }

// LevelName returns the name of level l.
func (t *Topology) LevelName(l int) string { return t.levels[l].name }

// LevelClass returns the hop class charged for traffic whose innermost
// common container is level l.
func (t *Topology) LevelClass(l int) HopClass { return t.levels[l].class }

// LevelIndex resolves a level name to its index (innermost first).
func (t *Topology) LevelIndex(name string) (int, bool) {
	for i := range t.levels {
		if t.levels[i].name == name {
			return i, true
		}
	}
	return 0, false
}

// Groups returns the number of groups at level l.
func (t *Topology) Groups(l int) int { return len(t.levels[l].sizes) }

// GroupOf returns the level-l group hosting a global rank.
func (t *Topology) GroupOf(l, rank int) int { return t.levels[l].group[rank] }

// NodeOf returns the node index hosting a global rank.
func (t *Topology) NodeOf(rank int) int { return t.levels[t.nodeIdx].group[rank] }

// SameNode reports whether two global ranks share a node — the
// shared-memory reachability test used by windows and flag signalling.
func (t *Topology) SameNode(a, b int) bool {
	return t.levels[t.nodeIdx].group[a] == t.levels[t.nodeIdx].group[b]
}

// Hop classifies the path between two global ranks: the class of the
// innermost level containing both, HopNet when they share no declared
// level. With only the node level declared this is exactly the
// historical shm/net split.
func (t *Topology) Hop(a, b int) HopClass {
	if a == b {
		return HopSelf
	}
	for i := range t.levels {
		if t.levels[i].group[a] == t.levels[i].group[b] {
			return t.levels[i].class
		}
	}
	return HopNet
}

// FoldUnit returns the rank-translation period of a homogeneous
// topology: the smallest u such that shifting every rank by u maps the
// hierarchy onto itself — the number of ranks per outermost-level
// group. Rank-symmetry folding (internal/mpi) uses it to collapse a
// translational workload to one representative per residue class
// mod u. It returns 0 when any level's groups differ in size (the
// irregularly-populated case, where no translation symmetry exists and
// folding must stay off). Nesting uniformity follows: uniform group
// sizes at every level of a validated nested hierarchy imply a uniform
// child count per group.
func (t *Topology) FoldUnit() int {
	for i := range t.levels {
		sizes := t.levels[i].sizes
		for _, sz := range sizes[1:] {
			if sz != sizes[0] {
				return 0
			}
		}
	}
	return t.levels[len(t.levels)-1].sizes[0]
}

// String summarizes the topology, e.g. "64x24", "3 nodes [24 24 16]",
// or "2x12 (socket⊂node)" for multi-level stacks.
func (t *Topology) String() string {
	node := &t.levels[t.nodeIdx]
	uniform := true
	for _, sz := range node.sizes {
		if sz != node.sizes[0] {
			uniform = false
			break
		}
	}
	var base string
	if uniform {
		base = fmt.Sprintf("%dx%d", len(node.sizes), node.sizes[0])
	} else {
		base = fmt.Sprintf("%d nodes %v", len(node.sizes), node.sizes)
	}
	if len(t.levels) == 1 {
		return base
	}
	names := make([]string, len(t.levels))
	for i := range t.levels {
		names[i] = t.levels[i].name
	}
	return fmt.Sprintf("%s (%s)", base, strings.Join(names, "⊂"))
}
