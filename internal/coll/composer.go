package coll

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// Composer is the multi-level collective machinery: a leader tree built
// over an ordered stack of topology levels (innermost first), with one
// communicator per tier. Tier 0 partitions every rank by the innermost
// level; tier i>0 partitions the tier-(i-1) leaders by level i; the top
// communicator joins the outermost leaders. The historical two-level
// Hier (node + bridge) is exactly the one-level stack [node], and the
// hybrid context is the one-level stack of whichever shared-memory
// level hosts its window.
//
// Geometry is derived, not exchanged: the tier membership tables and
// the level-sorted slot order are a pure function of the topology and
// the communicator's rank table, so whichever member arrives first
// computes them (mpi.SetupSlab, backed by the cross-world geometry
// cache) and every member adopts the same read-only tables. Hier,
// MultiLeaderHier and hybrid.Ctx all take their node shape from here.
// Construction is untimed one-off setup.
//
// A rank's Composer holds only what differs per rank — its
// communicator and the shared plan — and reads everything else (tier
// handles, groups, slots, the level stack) from the plan by its rank.
type Composer struct {
	comm *mpi.Comm
	plan *composerPlan
}

// tierShape describes every group of one tier, in leader (slot) order.
type tierShape struct {
	first []int // group -> first slot of the group
	size  []int // group -> number of ranks (slots) in the group
	// For tiers above the innermost: the contiguous range of child
	// groups (at the tier below) each group is composed of.
	childLo []int
	childN  []int
}

// compShape is the level-sorted geometry of one composer, computed
// once and shared read-only by every member.
type compShape struct {
	slotToRank []int
	rankToSlot []int
	smp        bool
	tiers      []tierShape
}

// buildCompShape lays the membership out in level order and derives
// the per-tier group tables, straight from the tier group tables:
// groups[t][g] lists tier-t group g's members as comm ranks in
// ascending order, tierGroup[t][r] is comm rank r's group at tier t,
// and top lists the outermost leaders in ascending comm-rank order. A
// group's slots are its members' in order, where a member above tier 0
// — the leader of a group one tier down — stands for that whole group.
// Group order at every tier is therefore leader-comm-rank order (bridge
// order), matching the historical node-sorted global rank array of
// hybrid Sect. 6.
func buildCompShape(n int, groups [][][]int, tierGroup [][]int32, top []int) *compShape {
	shape := &compShape{
		slotToRank: make([]int, 0, n),
		rankToSlot: make([]int, n),
		smp:        true,
		tiers:      make([]tierShape, len(groups)),
	}
	var expand func(t, g int)
	expand = func(t, g int) {
		ts := &shape.tiers[t]
		first := len(shape.slotToRank)
		ts.first = append(ts.first, first)
		if t > 0 {
			ts.childLo = append(ts.childLo, len(shape.tiers[t-1].first))
			ts.childN = append(ts.childN, len(groups[t][g]))
		}
		for _, m := range groups[t][g] {
			if t == 0 {
				shape.slotToRank = append(shape.slotToRank, m)
			} else {
				expand(t-1, int(tierGroup[t-1][m]))
			}
		}
		ts.size = append(ts.size, len(shape.slotToRank)-first)
	}
	for _, lead := range top {
		expand(len(groups)-1, int(tierGroup[len(groups)-1][lead]))
	}
	for s, r := range shape.slotToRank {
		shape.rankToSlot[r] = s
		if r != s {
			shape.smp = false
		}
	}
	return shape
}

// NewComposer builds the leader tree over the given stack of topology
// level indices (innermost first, strictly nested). All members of c
// must call it collectively with the same stack.
func NewComposer(c *mpi.Comm, levels []int) (*Composer, error) {
	if c == nil {
		return nil, fmt.Errorf("coll: NewComposer on nil communicator")
	}
	topo := c.Proc().World().Topology()
	if len(levels) == 0 {
		return nil, fmt.Errorf("coll: composer needs at least one level")
	}
	for i, l := range levels {
		if l < 0 || l >= topo.NumLevels() {
			return nil, fmt.Errorf("coll: composer level %d out of range (topology has %d levels)", l, topo.NumLevels())
		}
		if i > 0 && l <= levels[i-1] {
			// A copy, so that boxing it here does not move every
			// caller's level stack to the heap.
			return nil, fmt.Errorf("coll: composer levels must be ordered innermost first, got %v", slices.Clone(levels))
		}
	}
	// The whole geometry — tier membership tables, slot order, contexts
	// — is derived locally and shared through one setup slot, which also
	// holds every member's Composer: the tables come from the cross-world
	// geometry cache, the contexts are opened by whichever member builds
	// the per-call plan first. No exchange runs; construction stays
	// collective (every member must call, in the same order) but nobody
	// waits on anybody.
	k, v, err := mpi.SetupSlab[Composer](c, func() (any, error) {
		geom, err := composerGeomFor(topo, c.Ranks(), levels)
		if err != nil {
			return nil, err
		}
		// Handle runs for the ranks that execute, as the slab has, and
		// context records for the groups those ranks belong to: every
		// group unfolded, the leading one or two of a folded 1,024.
		span := c.ExecSpan()
		plan := &composerPlan{
			geom:    geom,
			tierOff: make([]int, len(levels)+1),
			arena:   make([]mpi.Comm, geom.handleOff[span]),
		}
		for t, group := range geom.tierGroup {
			plan.tierOff[t+1] = plan.tierOff[t] + int(slices.Max(group[:span])) + 1
		}
		top := plan.tierOff[len(levels)]
		tables := make([][]int, 0, top+1)
		for t, groups := range geom.tierRanks {
			tables = append(tables, groups[:plan.tierOff[t+1]-plan.tierOff[t]]...)
		}
		plan.ctxs = make([]mpi.Context, top+1)
		c.Proc().World().InitContexts(plan.ctxs, append(tables, geom.topRanks))
		return plan, nil
	})
	if err != nil {
		return nil, fmt.Errorf("coll: composer geometry plan rejected: %w", err)
	}
	plan := v.(*composerPlan)
	geom := plan.geom

	// Materialize this rank's tier communicators, innermost first, into
	// this rank's run of the plan's shared handle arena. Membership is a
	// prefix — a tier-t member leads a group at every tier below — so
	// the run is the rank's tiers, innermost first, then the top; ranks
	// that are not leaders of the tier below get no handle, and Tier
	// reports nil for them, exactly as the split-based construction
	// produced.
	me := c.Rank()
	slot := geom.handleOff[me]
	for t := range levels {
		gi := geom.tierGroup[t][me]
		if gi < 0 {
			break
		}
		c.InitGroupComm(&plan.arena[slot], &plan.ctxs[plan.tierOff[t]+int(gi)], int(geom.tierRank[t][me]))
		slot++
	}
	if tr := geom.topRank[me]; tr >= 0 {
		c.InitGroupComm(&plan.arena[slot], &plan.ctxs[len(plan.ctxs)-1], int(tr))
	}
	*k = Composer{comm: c, plan: plan}
	return k, nil
}

// NewComposerNamed resolves level names ("numa", "socket", "node",
// "group") against the world topology and builds the composer.
func NewComposerNamed(c *mpi.Comm, names ...string) (*Composer, error) {
	if c == nil {
		return nil, fmt.Errorf("coll: NewComposerNamed on nil communicator")
	}
	topo := c.Proc().World().Topology()
	var store [4]int // as deep as Composer's inline tiers: stays on the stack
	levels := store[:0]
	for _, name := range names {
		l, ok := topo.LevelIndex(name)
		if !ok {
			return nil, fmt.Errorf("coll: topology %s has no level %q", topo, name)
		}
		levels = append(levels, l)
	}
	// Insertion sort over at most a few levels. sort.Ints would reach
	// slices.Sort through a generic dictionary call, which on 386 makes
	// store escape: one heap object per rank per world.
	for i := 1; i < len(levels); i++ {
		for j := i; j > 0 && levels[j] < levels[j-1]; j-- {
			levels[j], levels[j-1] = levels[j-1], levels[j]
		}
	}
	return NewComposer(c, levels)
}

// Comm returns the communicator the composer was built over.
func (k *Composer) Comm() *mpi.Comm { return k.comm }

// Tier returns the tier-i communicator (nil on ranks that are not
// leaders of every tier below i): slot i of this rank's run of the
// plan's handle arena, since tier membership is a prefix.
func (k *Composer) Tier(i int) *mpi.Comm {
	g, me := k.plan.geom, k.comm.Rank()
	if g.tierGroup[i][me] < 0 {
		return nil
	}
	return &k.plan.arena[int(g.handleOff[me])+i]
}

// Top returns the outermost leader communicator (nil on everyone
// else): the arena slot after the last tier's, as the outermost
// leaders belong to every tier.
func (k *Composer) Top() *mpi.Comm {
	g, me := k.plan.geom, k.comm.Rank()
	if g.topRank[me] < 0 {
		return nil
	}
	return &k.plan.arena[int(g.handleOff[me])+len(g.levels)]
}

// depth returns the number of tiers: the length of the level stack.
func (k *Composer) depth() int { return len(k.plan.geom.levels) }

// shape returns the shared level-sorted geometry.
func (k *Composer) shape() *compShape { return k.plan.geom.shape }

// SMP reports whether comm ranks are laid out SMP-style (level-sorted
// slot order equals comm rank order).
func (k *Composer) SMP() bool { return k.shape().smp }

// SlotOf maps a comm rank to its slot in level-gathered buffers.
func (k *Composer) SlotOf(rank int) int { return k.shape().rankToSlot[rank] }

// Groups returns the number of groups at tier i.
func (k *Composer) Groups(i int) int { return len(k.shape().tiers[i].first) }

// GroupSizes returns ranks per tier-i group in leader order (shared
// across all ranks; do not modify).
func (k *Composer) GroupSizes(i int) []int { return k.shape().tiers[i].size }

// GroupFirsts returns the first slot of each tier-i group in leader
// order (shared across all ranks; do not modify).
func (k *Composer) GroupFirsts(i int) []int { return k.shape().tiers[i].first }

// MyGroup returns this rank's group index at tier i.
func (k *Composer) MyGroup(i int) int { return k.GroupOfSlot(i, k.SlotOf(k.comm.Rank())) }

// GroupOfSlot returns the index, in leader order, of the tier-t group
// containing a slot.
func (k *Composer) GroupOfSlot(t, slot int) int {
	ts := &k.shape().tiers[t]
	return sort.SearchInts(ts.first, slot+1) - 1
}

// requireSMP guards the composed collectives, which address recv
// buffers by comm rank: slot order must equal rank order.
func (k *Composer) requireSMP(op string) error {
	if !k.SMP() {
		return fmt.Errorf("coll: composed %s needs SMP-style placement (level blocks contiguous in rank order)", op)
	}
	return nil
}

// Allgather runs the composed SMP-aware allgather, the N-level
// generalization of the paper's pure-MPI baseline allgather (Fig. 3a):
//
//  1. every innermost group gathers its members' blocks at the group
//     leader (linear, the intra-node aggregation phase over
//     shared-memory transport),
//  2. each higher tier gathers the accumulated child-group blocks at
//     its leader,
//  3. the outermost leaders exchange whole-group blocks on the bridge
//     (tuned MPI_Allgather when uniform, MPI_Allgatherv otherwise —
//     [29], Fig. 10),
//  4. the result is broadcast back down the tree, one tier at a time,
//     so every rank ends with its own private full copy.
//
// With the one-level stack [node] this is bit-identical to the
// historical two-level Hier.Allgather.
func (k *Composer) Allgather(send, recv mpi.Buf, per int) error {
	if err := checkAllgatherArgs(k.comm, send, recv, per); err != nil {
		return err
	}
	if err := k.requireSMP("allgather"); err != nil {
		return err
	}
	shape, depth := k.shape(), k.depth()

	// Up phase, tier 0: linear gather at the leader, directly into the
	// group's slice of the final buffer.
	t0 := &shape.tiers[0]
	g0 := k.MyGroup(0)
	base0 := t0.first[g0] * per
	if err := GatherLinear(k.Tier(0), send.Slice(0, per), recv.Slice(base0, t0.size[g0]*per), per, 0); err != nil {
		return fmt.Errorf("coll: composed allgather gather phase: %w", err)
	}
	// Up phase, higher tiers: leaders forward their accumulated child
	// blocks (irregular in general, so a linear gatherv at absolute
	// offsets; the root's own block is already in place).
	for t := 1; t < depth; t++ {
		tier := k.Tier(t)
		if tier == nil {
			break
		}
		ts := &shape.tiers[t]
		below := &shape.tiers[t-1]
		g := k.MyGroup(t)
		counts := make([]int, ts.childN[g])
		offs := make([]int, ts.childN[g])
		for j := 0; j < ts.childN[g]; j++ {
			child := ts.childLo[g] + j
			counts[j] = below.size[child] * per
			offs[j] = below.first[child] * per
		}
		// The root's own block is already in place (the tier below put
		// it there), so unlike Gatherv no self-copy is charged.
		v := blocks{buf: recv, counts: counts, displs: offs}
		mine := v.at(tier.Rank())
		if err := gatherAtRoot(tier, mine, v, 0, family{name: "in-place gather", tag: tagGather}); err != nil {
			return fmt.Errorf("coll: composed allgather tier %d gather: %w", t, err)
		}
	}

	// Top exchange: outermost leaders trade whole-group blocks.
	// Uniform group sizes use the tuned MPI_Allgather path; irregular
	// populations force the weaker MPI_Allgatherv ([29], Fig. 10).
	if top := k.Top(); top != nil && top.Size() > 1 {
		last := &shape.tiers[depth-1]
		if slices.Min(last.size) == slices.Max(last.size) {
			blk := last.size[0] * per
			if err := AllgatherInPlace(top, recv, blk); err != nil {
				return fmt.Errorf("coll: composed allgather top exchange: %w", err)
			}
		} else {
			counts := scale(last.size, per)
			if err := AllgathervInPlace(top, recv, counts); err != nil {
				return fmt.Errorf("coll: composed allgather top exchange: %w", err)
			}
		}
	}

	// Down phase: every tier's leader broadcasts the full result to
	// its group, outermost tier first.
	total := len(shape.slotToRank) * per
	for t := depth - 1; t >= 0; t-- {
		tier := k.Tier(t)
		if tier == nil {
			continue
		}
		if err := BcastBinomial(tier, recv.Slice(0, total), 0); err != nil {
			return fmt.Errorf("coll: composed allgather tier %d bcast: %w", t, err)
		}
	}
	return nil
}

// Bcast runs the composed SMP-aware broadcast baseline: the root hands
// the message up its leader chain (one send per tier whose leader the
// chain has not yet reached), the outermost leaders broadcast among
// themselves over the bridge, and every tier's leader fans out to its
// group, outermost first — so every rank again holds a private copy.
// Per-tier algorithms are chosen through the selection engine at each
// tier communicator's hop class. With the stack [node] this is
// bit-identical to the historical Hier.Bcast.
func (k *Composer) Bcast(buf mpi.Buf, root int) error {
	if err := checkBcastArgs(k.comm, buf, root); err != nil {
		return err
	}
	if err := k.requireSMP("bcast"); err != nil {
		return err
	}
	shape, depth := k.shape(), k.depth()
	me := k.comm.Rank()

	// Up the leader chain: rep is the comm rank currently holding the
	// payload on root's branch; it forwards to each tier's group
	// leader in turn.
	rep := root
	for t := 0; t < depth; t++ {
		g := k.GroupOfSlot(t, root) // slot == comm rank under SMP
		leader := shape.tiers[t].first[g]
		if rep != leader {
			if me == rep {
				if err := k.Tier(t).Send(buf, 0, tagBcast); err != nil {
					return fmt.Errorf("coll: composed bcast tier %d hand-off: %w", t, err)
				}
			}
			if me == leader {
				src := k.tierRankOf(t, rep)
				if _, err := k.Tier(t).Recv(buf, src, tagBcast); err != nil {
					return fmt.Errorf("coll: composed bcast tier %d hand-off: %w", t, err)
				}
			}
			rep = leader
		}
	}

	// Outermost leaders broadcast across groups.
	if top := k.Top(); top != nil && top.Size() > 1 {
		rootTop := k.GroupOfSlot(depth-1, root)
		if err := Bcast(top, buf, rootTop); err != nil {
			return fmt.Errorf("coll: composed bcast top phase: %w", err)
		}
	}
	// Leaders fan out, outermost tier first.
	for t := depth - 1; t >= 0; t-- {
		tier := k.Tier(t)
		if tier == nil {
			continue
		}
		if err := Bcast(tier, buf, 0); err != nil {
			return fmt.Errorf("coll: composed bcast tier %d phase: %w", t, err)
		}
	}
	return nil
}

// tierRankOf returns the tier-t communicator rank of a comm rank that
// is a member of this rank's tier-t group: for tier 0 the offset within
// the group, above that the index of its child group within the parent.
func (k *Composer) tierRankOf(t, commRank int) int {
	slot := commRank // SMP guaranteed by callers
	ts := &k.shape().tiers[t]
	g := k.GroupOfSlot(t, slot)
	if t == 0 {
		return slot - ts.first[g]
	}
	child := k.GroupOfSlot(t-1, slot)
	return child - ts.childLo[g]
}

// TierEstimate is one phase of a priced composition.
type TierEstimate struct {
	Level     string  `json:"level"`
	Phase     string  `json:"phase"`
	CommSize  int     `json:"comm_size"`
	Hop       string  `json:"hop"`
	Algorithm string  `json:"algorithm"`
	EstUs     float64 `json:"est_us"`
}

// PriceAllgather prices the composition Allgather actually executes:
// the intra-tree phases are fixed by construction (linear gathers up,
// binomial broadcasts down — the SMP-aware baseline shape, kept
// bit-identical to the historical two-level code), so they are charged
// with their registered entries' estimates at each tier's communicator
// size, payload and hop class; only the top exchange goes through the
// selection engine, exactly as at run time, so its reported algorithm
// is the one the measured virtual time ran. Per-level selection over
// candidates is the composed Bcast's domain, where every tier routes
// through the registry. The total is the sequential sum over phases —
// the critical path of the worst-populated chain.
func (k *Composer) PriceAllgather(per int, tun Tuning) ([]TierEstimate, sim.Time, error) {
	topo := k.comm.Proc().World().Topology()
	model := k.comm.Proc().Model()
	var out []TierEstimate
	var total sim.Time
	add := func(level, phase, name string, e Env, cl Collective) error {
		if e.Size <= 1 {
			return nil
		}
		if name == "" {
			var err error
			if name, err = Choose(cl, e, tun); err != nil {
				return err
			}
		}
		en := findEntry(cl, name)
		if en == nil {
			return fmt.Errorf("coll: composition phase %s/%s prices unknown algorithm %q", level, phase, name)
		}
		est := en.cost(e)
		out = append(out, TierEstimate{
			Level: level, Phase: phase, CommSize: e.Size,
			Hop: e.Hop.String(), Algorithm: name, EstUs: est.Us(),
		})
		total += est
		return nil
	}

	shape, levels := k.shape(), k.plan.geom.levels
	ranks := len(shape.slotToRank)
	// Up phases: per-tier linear gathers (what Allgather runs) at the
	// tier's hop class, sized by the largest group — the chain that
	// bounds the makespan.
	carried := per
	for t := range levels {
		ts := &shape.tiers[t]
		size := slices.Max(ts.size)
		members := size
		if t > 0 {
			members = slices.Max(ts.childN)
			carried = size * per / max(members, 1)
		}
		e := Env{Size: members, Bytes: carried, Model: model, Hop: topo.LevelClass(levels[t])}
		if err := add(topo.LevelName(levels[t]), "gather", "linear", e, CollGather); err != nil {
			return nil, 0, err
		}
		carried = size * per
	}
	// Top exchange across the outermost groups: the selection-driven
	// phase.
	last := &shape.tiers[len(levels)-1]
	if len(last.size) > 1 {
		e := Env{Size: len(last.size), Bytes: slices.Max(last.size) * per, Model: model, Hop: sim.HopNet}
		cl := CollAllgather
		if slices.Min(last.size) != slices.Max(last.size) {
			cl = CollAllgatherv
			e.Bytes = ranks * per
		}
		if err := add("top", "exchange", "", e, cl); err != nil {
			return nil, 0, err
		}
	}
	// Down phases: full-result binomial broadcasts (what Allgather
	// runs), outermost tier first.
	for t := len(levels) - 1; t >= 0; t-- {
		ts := &shape.tiers[t]
		members := slices.Max(ts.size)
		if t > 0 {
			members = slices.Max(ts.childN)
		}
		e := Env{Size: members, Bytes: ranks * per, Model: model, Hop: topo.LevelClass(levels[t])}
		if err := add(topo.LevelName(levels[t]), "bcast", "binomial", e, CollBcast); err != nil {
			return nil, 0, err
		}
	}
	return out, total, nil
}
