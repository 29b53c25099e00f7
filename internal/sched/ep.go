package sched

import (
	"errors"
	"fmt"

	"repro/internal/petri"
)

// ErrNoSchedule is wrapped by FindSchedule failures that mean "searched
// the whole space RT_θ and found nothing" rather than an internal error.
var ErrNoSchedule = errors.New("no schedule in the search space")

// ErrBudget is wrapped when the node budget was exhausted before the
// search space was covered; the result is then inconclusive.
var ErrBudget = errors.New("search budget exhausted")

// Options configures the schedule search.
type Options struct {
	// Term is the termination condition defining the search space.
	// Defaults to the irrelevance criterion.
	Term Termination
	// Order sorts enabled ECSs at each node. Defaults to the T-invariant
	// heuristic of Section 5.5.2 with the paper's tie-breaks.
	Order ECSOrder
	// MultiSource permits firing other uncontrollable sources inside the
	// schedule (yielding MS schedules, Section 4.1). The default (false)
	// generates only single-source schedules, which are guaranteed
	// independent for FlowC-derived nets (Prop. 4.3).
	MultiSource bool
	// MaxNodes bounds the number of tree nodes / graph states created
	// (default DefaultMaxNodes). It bounds a search's memory only
	// through the bytes each state costs, and those grow with the net's
	// width: one search of a generated corpus app with 153 places
	// allocates about 380 B per graph state, and peaks at about 310 MB
	// (303,000 KiB) of RSS when a budget of 1,000,000 states stops it.
	MaxNodes int
	// ExploreWorkers is ignored.
	//
	// Deprecated: the graph engine explores on the calling goroutine.
	// Its in-process goroutine fan-out lost to the serial search in
	// every measurement and was removed. The field stays only because
	// the repository benchmark (qssbench) still sets it; it goes when
	// that benchmark is next updated.
	ExploreWorkers int
	// Engine selects the search engine (default EngineGraph).
	Engine Engine
	// NoFallback disables the automatic exhaustive-tree retry after a
	// greedy-tree failure (EngineTreeGreedy only).
	NoFallback bool
}

// Engine selects how the schedule search explores the reachability
// space.
type Engine int

const (
	// EngineGraph (default) searches the marking graph with an
	// alternating closure/reachability fixpoint — polynomial in the
	// number of reachable markings under the termination caps, and
	// complete with respect to tree schedules within that space.
	EngineGraph Engine = iota
	// EngineTreeGreedy is the paper's EP/EP_ECS tree search with two
	// refinements: the first ECS yielding a valid entering point wins,
	// and environment sources fire only when nothing else can (the
	// paper's own heuristic applied as a hard gate). Falls back to
	// EngineTreeExhaustive on failure unless NoFallback is set.
	EngineTreeGreedy
	// EngineTreeExhaustive is the EP/EP_ECS procedure exactly as in
	// Figure 9 of the paper: every enabled ECS is explored in heuristic
	// order looking for the minimum entering point.
	EngineTreeExhaustive
)

// DefaultMaxNodes is the state budget of a search whose
// Options.MaxNodes is zero.
const DefaultMaxNodes = 2_000_000

func (o *Options) withDefaults(n *petri.Net, source int) Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	if out.Term == nil {
		out.Term = NewIrrelevance(n)
	}
	// The graph engine never consults an ECS order; skip the T-invariant
	// basis computation (it is not free) unless a tree engine will run.
	if out.Order == nil && out.Engine != EngineGraph {
		out.Order = NewTInvariantOrder(n, source, out.Term)
	}
	if out.MaxNodes == 0 {
		out.MaxNodes = DefaultMaxNodes
	}
	return out
}

// treeNode is a node of the EP search tree. Markings are hash-consed in
// the engine's store: mid is the interned ID, and marking is a read-only
// view into the store's arena, so marking-match tests are integer
// compares and equal markings share one vector however many tree nodes
// carry them.
type treeNode struct {
	parent  *treeNode
	depth   int
	inTrans int // transition fired on the edge from parent; -1 at root
	mid     petri.MarkID
	marking petri.Marking

	chosenECS *petri.ECS          // ECS(v) chosen by EP; nil for leaves
	kids      map[int][]*treeNode // ECS index -> children created
	entry     *treeNode           // loop target for marking-match leaves
}

type engine struct {
	net    *petri.Net
	source int
	opt    Options
	part   []*petri.ECS
	stats  SearchStats
	nodes  int
	over   bool  // budget exhausted, or err set: the search stops
	err    error // a firing passed petri.MaxTokens (ErrTokenOverflow)

	store   *petri.MarkingStore
	scratch petri.Marking // firing buffer reused across the search
	// ancStack holds the markings on the DFS path from the root to the
	// node currently being expanded (root first), maintained push/pop by
	// ep instead of re-walking parent pointers per node.
	ancStack []petri.Marking
	// fired holds per-transition fire counts along the same path.
	fired []int
	// octx is the reusable ordering context handed to ECSOrder.Sort.
	octx OrderContext

	// ft fires every transition of the search. Enablement is
	// incremental along the DFS path: bitsStack holds one enabled-ECS
	// bitset (stride words) per node on the path, pushed by ep from the
	// parent's set via ft.Update, so enabledECS reads the top of the
	// stack instead of scanning the partition. allowedMask filters out
	// uncontrollable sources other than the schedule's own
	// (single-source mode). ecsStack is a stack arena for the enabled
	// slices handed to the ordering heuristic — frames are pushed by
	// epExpand and popped on return, so expansion allocates no per-node
	// slice.
	ft          *petri.FiringTable
	stride      int
	allowedMask []uint64
	bitsStack   []uint64
	ecsStack    []*petri.ECS
}

// FindSchedule computes a single-source schedule for the given
// uncontrollable source transition, or reports why none was found.
func FindSchedule(n *petri.Net, source int, opt *Options) (*Schedule, error) {
	if source < 0 || source >= len(n.Transitions) {
		return nil, fmt.Errorf("sched: source transition %d out of range", source)
	}
	st := n.Transitions[source]
	if st.Kind != petri.TransSourceUnc {
		return nil, fmt.Errorf("sched: transition %s is %v, want an uncontrollable source", st.Name, st.Kind)
	}
	eff := opt.withDefaults(n, source)
	if eff.Engine == EngineGraph {
		return findScheduleGraph(n, source, eff)
	}
	e := &engine{
		net:    n,
		source: source,
		opt:    eff,
		part:   n.ECSPartition(),
		store:  petri.NewMarkingStore(len(n.Places)),
		fired:  make([]int, len(n.Transitions)),
	}
	e.ft = petri.NewFiringTable(n, e.part)
	e.stride = e.ft.Stride()
	e.allowedMask = allowedMask(n, e.part, source, e.opt.MultiSource)
	root := e.newNode(nil, -1, n.InitialMarking())
	if !e.fire(root.marking, source) {
		return nil, fmt.Errorf("sched: source %s: %w", st.Name, e.err)
	}
	child := e.newNode(root, source, e.scratch)
	// The root is on the path of every node below it: account for its
	// marking, enabled set and the source firing before descending into
	// EP (ep derives the child's set from the stack top, so the root's
	// full-scan seed must already be there).
	e.ancStack = append(e.ancStack, root.marking)
	e.pushBits(root)
	e.fired[source]++
	root.chosenECS = e.part[e.ft.ECSOf(source)]
	root.kids = map[int][]*treeNode{root.chosenECS.Index: {child}}
	got := e.ep(child, root)
	if e.err != nil {
		return nil, fmt.Errorf("sched: source %s: %w", st.Name, e.err)
	}
	if e.over {
		return nil, fmt.Errorf("sched: source %s: %w (created %d nodes)", st.Name, ErrBudget, e.nodes)
	}
	if got != root {
		if e.opt.Engine == EngineTreeGreedy && !e.opt.NoFallback {
			retry := e.opt
			retry.Engine = EngineTreeExhaustive
			return FindSchedule(n, source, &retry)
		}
		return nil, fmt.Errorf("sched: source %s under %s: %w (explored %d nodes, pruned %d)",
			st.Name, e.opt.Term.Name(), ErrNoSchedule, e.nodes, e.stats.Pruned)
	}
	s := e.buildSchedule(root)
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("sched: internal error: produced invalid schedule: %v", err)
	}
	return s, nil
}

// allowedMask returns the ECSs of part that a schedule for source may
// fire, one bit per ECS index: every ECS but, unless multi is set, the
// uncontrollable sources other than source (single-source schedules).
func allowedMask(n *petri.Net, part []*petri.ECS, source int, multi bool) []uint64 {
	mask := make([]uint64, (len(part)+63)/64)
	for _, E := range part {
		if multi || !E.IsUncontrollable(n) || E.Trans[0] == source {
			mask[E.Index>>6] |= 1 << (uint(E.Index) & 63)
		}
	}
	return mask
}

// fire fires transition tid at m into the scratch buffer. The tree
// engines cap no place, so a count past petri.MaxTokens cannot be
// vetoed: it stops the search with e.err, and fire reports false.
func (e *engine) fire(m petri.Marking, tid int) bool {
	e.scratch = e.ft.Fire(e.scratch, m, tid)
	if e.err = e.ft.Overflow(nil, e.scratch, tid); e.err != nil {
		e.over = true
		return false
	}
	return true
}

// newNode creates a tree node for marking m, hash-consing the vector:
// m may be (and in the hot path is) the engine's scratch buffer — the
// store copies it only if the marking is new.
func (e *engine) newNode(parent *treeNode, inTrans int, m petri.Marking) *treeNode {
	e.nodes++
	if e.nodes > e.opt.MaxNodes {
		e.over = true
	}
	mid, _ := e.store.Intern(m)
	n := &treeNode{parent: parent, inTrans: inTrans, mid: mid, marking: e.store.At(mid)}
	if parent != nil {
		n.depth = parent.depth + 1
	}
	e.stats.NodesCreated++
	return n
}

// isAncEq reports whether u is an ancestor of x or x itself.
func isAncEq(u, x *treeNode) bool {
	for x != nil && x.depth >= u.depth {
		if x == u {
			return true
		}
		x = x.parent
	}
	return false
}

// pushBits computes the enabled-ECS set of node v — from its parent's
// set (the current stack top) via ft.Update, or by a full scan at the
// root — and pushes it onto the bits stack.
func (e *engine) pushBits(v *treeNode) {
	base := len(e.bitsStack)
	for i := 0; i < e.stride; i++ {
		e.bitsStack = append(e.bitsStack, 0)
	}
	slot := e.bitsStack[base : base+e.stride]
	if v.parent == nil {
		e.ft.Init(slot, v.marking)
		return
	}
	e.ft.Update(slot, e.bitsStack[base-e.stride:base], v.inTrans, v.marking)
}

func (e *engine) popBits() {
	e.bitsStack = e.bitsStack[:len(e.bitsStack)-e.stride]
}

// ep implements function EP(v, target) of Figure 9(a): find an entering
// point of v that is an ancestor of target if one exists, else the
// minimum entering point found, else nil (UNDEF).
//
// Invariant: on entry, e.ancStack holds the markings of v's proper
// ancestors (root first), e.bitsStack their enabled sets (so the top is
// v's parent's set), and e.fired the per-transition fire counts of the
// path from the root to v inclusive; all are maintained push/pop around
// the recursion instead of being rebuilt per node.
func (e *engine) ep(v, target *treeNode) *treeNode {
	if e.over {
		return nil
	}
	if e.opt.Term.Prune(v.marking, e.ancStack) {
		e.stats.Pruned++
		return nil
	}
	// Marking match against a proper ancestor: v is a leaf looping back.
	// Hash-consing reduces the test to a MarkID compare.
	for u := v.parent; u != nil; u = u.parent {
		if u.mid == v.mid {
			v.entry = u
			return u
		}
	}
	e.ancStack = append(e.ancStack, v.marking)
	e.pushBits(v)
	best := e.epExpand(v, target)
	e.popBits()
	e.ancStack = e.ancStack[:len(e.ancStack)-1]
	return best
}

// epExpand explores the enabled ECSs of v; e.ancStack already includes
// v's marking and e.bitsStack its enabled set (the path root..v
// inclusive).
func (e *engine) epExpand(v, target *treeNode) (best *treeNode) {
	base := len(e.ecsStack)
	defer func() { e.ecsStack = e.ecsStack[:base] }()
	enabled := e.enabledECS()
	e.octx.Net = e.net
	e.octx.Marking = v.marking
	e.octx.Fired = e.fired
	e.octx.Source = e.source
	e.octx.Path = e.ancStack
	enabled = e.opt.Order.Sort(&e.octx, enabled)
	// Environment sources are a second-class pass: "fire a source
	// transition only when the system cannot fire anything else"
	// (Section 4.4). In greedy mode this is a hard gate, realized as
	// two filtered passes over the sorted slice (no per-node split
	// buffers); in exhaustive mode sources are merely ordered last by
	// the heuristic and a single unfiltered pass suffices.
	exhaustive := e.opt.Engine == EngineTreeExhaustive
	for pass := 0; pass < 2; pass++ {
		for _, E := range enabled {
			if !exhaustive && E.IsSourceECS(e.net) != (pass == 1) {
				continue
			}
			got := e.epECS(E, v, target)
			if e.over {
				return nil
			}
			if got == nil {
				continue
			}
			if isAncEq(got, target) {
				v.chosenECS = E
				return got
			}
			if !exhaustive {
				// Greedy: the first valid entering point wins.
				v.chosenECS = E
				return got
			}
			if best == nil || got.depth < best.depth {
				v.chosenECS = E
				best = got
			}
		}
		if exhaustive || best != nil {
			break
		}
	}
	if best == nil {
		v.chosenECS = nil
	}
	return best
}

// epECS implements function EP_ECS(E, v, target) of Figure 9(b): create a
// child of v per transition of E and find the minimum entering point,
// provided each child yields one that is an ancestor of v.
func (e *engine) epECS(E *petri.ECS, v, target *treeNode) *treeNode {
	var min *treeNode
	curTarget := target
	var kids []*treeNode
	for _, tid := range E.Trans {
		if !e.fire(v.marking, tid) {
			return nil
		}
		w := e.newNode(v, tid, e.scratch)
		if e.over {
			return nil
		}
		kids = append(kids, w)
		e.fired[tid]++
		got := e.ep(w, curTarget)
		e.fired[tid]--
		if got == nil || !isAncEq(got, v) {
			return nil
		}
		if min == nil || got.depth < min.depth {
			min = got
		}
		if isAncEq(min, target) {
			curTarget = v
		}
	}
	if v.kids == nil {
		v.kids = map[int][]*treeNode{}
	}
	v.kids[E.Index] = kids
	return min
}

// enabledECS lists the ECSs enabled at the node whose bitset is on top
// of the bits stack, excluding — in single-source mode — uncontrollable
// sources other than the schedule's own. The result is a frame of the
// engine's stack arena (popped by epExpand), so listing allocates
// nothing beyond amortized arena growth; the caller must not retain it
// past the expansion.
func (e *engine) enabledECS() []*petri.ECS {
	base := len(e.ecsStack)
	petri.ForEachMaskedBit(e.bitsStack[len(e.bitsStack)-e.stride:], e.allowedMask, func(ei int) {
		e.ecsStack = append(e.ecsStack, e.part[ei])
	})
	return e.ecsStack[base:len(e.ecsStack):len(e.ecsStack)]
}

// buildSchedule performs the post-processing of Section 5.2: retain only
// the subtree selected by the chosen ECSs, and close a cycle at each
// retained leaf by merging it with the ancestor carrying its marking.
func (e *engine) buildSchedule(root *treeNode) *Schedule {
	e.stats.DistinctMarkings = e.store.Len()
	e.stats.StoreHotBytes = e.store.Mem().HotBytes
	sched := &Schedule{Net: e.net, Source: e.source, Stats: e.stats}
	nodeOf := map[*treeNode]*Node{}
	var mk func(t *treeNode) *Node
	mk = func(t *treeNode) *Node {
		if n, ok := nodeOf[t]; ok {
			return n
		}
		// Kept nodes are few; clone so the schedule does not pin the
		// search store's arena.
		n := &Node{ID: len(sched.Nodes), Marking: t.marking.Clone(), ECS: t.chosenECS}
		nodeOf[t] = n
		sched.Nodes = append(sched.Nodes, n)
		if t.chosenECS == nil {
			// Defensive: leaves are supposed to be redirected by their
			// parents and never materialized.
			return n
		}
		for _, kid := range t.kids[t.chosenECS.Index] {
			dest := kid
			if kid.entry != nil {
				dest = kid.entry
			}
			n.Edges = append(n.Edges, Edge{Trans: kid.inTrans, To: mk(dest)})
		}
		return n
	}
	sched.Root = mk(root)
	sched.Stats.NodesKept = len(sched.Nodes)
	return sched
}
