package sched

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/compile"
	"repro/internal/petri"
)

// Marking-graph engine.
//
// The paper's EP/EP_ECS procedure explores the reachability *tree*;
// equal markings reached along different interleavings are re-explored,
// which is exponential for multi-process systems. This engine searches
// the reachability *graph* instead: schedules are positional objects
// ("which ECS do I fire at this marking"), and a tree schedule whose
// markings lie inside the explored space always induces a positional
// one, so nothing is lost (the package doc gives the argument; the
// paper itself leaves the exactness of its pruning open).
//
// The engine:
//  1. enumerates the markings reachable under per-place caps derived
//     from the termination condition (the irrelevance criterion caps a
//     place at degree + max input weight — the most a single firing can
//     overshoot a saturated place; user place bounds cap directly);
//  2. computes the largest set X of markings such that every marking in
//     X has at least one allowed ECS whose successors all stay in X and
//     every marking in X can still reach the initial marking inside X
//     (an alternating closure/reachability fixpoint);
//  3. picks per marking the best surviving ECS (prefer internal
//     transitions over awaits, honor SELECT priorities, then walk down
//     the distance-to-root ranking) and emits the induced sub-graph as
//     the schedule.
//
// Step 1 is petri.Drive, inline, under the engine's ExpandSpec (allowed
// ECSs, place caps). The engine only supplies the merge hooks that
// write its arenas.

// CapProvider is implemented by termination conditions that can bound
// the token count of each place for the graph engine.
type CapProvider interface {
	Caps(n *petri.Net) []int
}

// Caps implements CapProvider: the graph engine bounds every place at
// its structural degree (Def. 4.4) — "the best one can extract from the
// PN structure about place bounds" in the paper's words. Accumulating
// tokens beyond the degree cannot enable new behaviour at the place
// itself, and bounding there keeps the marking graph small; nets whose
// schedules genuinely need deeper buffers can supply explicit
// PlaceBounds.
func (ir *Irrelevance) Caps(n *petri.Net) []int {
	caps := make([]int, len(n.Places))
	for i, p := range n.Places {
		caps[i] = ir.degrees[i]
		if caps[i] < p.Initial {
			caps[i] = p.Initial
		}
	}
	return caps
}

// Caps implements CapProvider: explicit bounds cap directly; unbounded
// places fall back to the irrelevance cap.
func (pb *PlaceBounds) Caps(n *petri.Net) []int {
	fallback := NewIrrelevance(n).Caps(n)
	caps := make([]int, len(n.Places))
	for i := range caps {
		if pb.Bounds[i] > 0 {
			caps[i] = pb.Bounds[i]
		} else {
			caps[i] = fallback[i]
		}
	}
	return caps
}

// gstate is the per-marking search state. Its index in graphEngine.states
// IS its petri.MarkID in the engine's store: the store assigns dense IDs
// in interning order, so no separate key map is needed. The state's
// groups (see graphEngine.adj) start at adj[start] and end where the
// next state's begin — per-state slice headers would be one allocation
// per (state, ECS) pair, which at hundreds of thousands of states is
// most of the search's allocation bill. Membership of the fixpoint's X
// set lives in graphEngine.inX instead, made at the exact state count
// once the exploration is over, so this table, which grows by doubling
// while the exploration runs, holds 8 bytes a state, not 12.
//
// Every per-state and per-edge table (states, adj, the reverse CSR,
// dist and the rank queue's links) holds indices, never pointers. A
// pointer per (state, ECS) pair would put one heap pointer per entry
// into a table the garbage collector then marks on every cycle, and
// each copy on growth would need write barriers. Pointer-free tables
// are never scanned and are copied by a plain memmove. The tables the
// merge appends to grow by petri.Push, which stores only a new length
// until a table reallocates.
type gstate struct {
	start int32
	occ   int32 // channel/port token occupancy, precomputed at intern
}

// graphEngine is one schedule search. Its tables hold only what the
// fixpoint and build read: the fixpoint needs each group's successors
// and nothing else, so adj stores no ECS, and choose and sourceGroup
// recover a group's ECS from the state's marking (see groupECSs), which
// they need only for the states the schedule keeps — 40 of PFC's
// 23,984.
type graphEngine struct {
	net    *petri.Net
	source int
	opt    Options
	part   []*petri.ECS

	store  *petri.MarkingStore
	states []gstate
	over   bool

	// ft fires the exploration and maps a transition to its ECS index,
	// which is how the merge groups successors into ECSs. spec is what
	// petri.Drive expands under: its Mask holds the ECSs this schedule
	// may fire (uncontrollable sources other than the schedule's own
	// are excluded in single-source mode), its Caps the place caps.
	// occDelta is the per-transition channel/port occupancy delta,
	// making the per-state occ field an O(1) increment.
	ft       *petri.FiringTable
	spec     petri.ExpandSpec
	occDelta []int32

	// adj is the forward adjacency, state after state: one group per
	// allowed enabled ECS of the state whose successors all stay within
	// the caps, in partition order, made of one successor state per
	// member, the last one flagged with endMark. A group with a
	// successor beyond the caps is never stored: no set X can keep it,
	// since a chosen ECS's successors must all be in X. A group is named
	// by its position in adj, that of its first successor.
	adj []int32

	// inX marks the states of the fixpoint's current X set, one entry
	// per state, made by solve.
	inX []bool

	// Reverse adjacency in CSR form, built once after exploration: the
	// edges e into state t, revOff[t] <= e < revOff[t+1], come from state
	// revSrc[e] by group revGroup[e]. computeRanks filters it by the
	// current X set instead of rebuilding the adjacency every fixpoint
	// round. dist is the rank of each state, its weighted distance back
	// to the root inside X (unreached if none), and queue orders the
	// reverse Dijkstra that computes it.
	revOff   []int32
	revSrc   []int32
	revGroup []int32
	dist     []int64
	queue    radixHeap

	// Scratch of groupECSs, reused for every state it expands: the
	// state's marking, its enabled-ECS set, a successor marking and the
	// resulting list of partition indices.
	mark, child petri.Marking
	bits        []uint64
	ecss        []int32
}

// endMark flags the last successor of each group in adj; readers mask it
// off with math.MaxInt32 (state ids are below 2³¹).
const endMark = math.MinInt32

// unreached is the rank of a state that cannot reach the root inside X.
const unreached = math.MaxInt64

// groups returns the bounds in adj of state id's groups.
func (ge *graphEngine) groups(id int) (lo, hi int32) {
	if id+1 < len(ge.states) {
		return ge.states[id].start, ge.states[id+1].start
	}
	return ge.states[id].start, int32(len(ge.adj))
}

// succ returns the successors of group g, one per member of its ECS;
// the last carries endMark.
func (ge *graphEngine) succ(g int32) []int32 { return ge.adj[g:ge.next(g)] }

// next returns the position of the group after g.
func (ge *graphEngine) next(g int32) int32 {
	for ge.adj[g] >= 0 {
		g++
	}
	return g + 1
}

// usable reports whether group g keeps every successor inside the
// current X set.
func (ge *graphEngine) usable(g int32) bool {
	for ; ; g++ {
		t := ge.adj[g]
		if !ge.inX[t&math.MaxInt32] {
			return false
		}
		if t < 0 {
			return true
		}
	}
}

func newGraphEngine(n *petri.Net, source int, opt Options) *graphEngine {
	ge := &graphEngine{
		net:    n,
		source: source,
		opt:    opt,
		part:   n.ECSPartition(),
	}
	if cp, ok := opt.Term.(CapProvider); ok {
		ge.spec.Caps = cp.Caps(n)
	} else {
		ge.spec.Caps = NewIrrelevance(n).Caps(n)
	}
	ge.spec.Mask = allowedMask(n, ge.part, source, opt.MultiSource)
	ge.ft = petri.NewFiringTable(n, ge.part)
	ge.bits = make([]uint64, ge.ft.Stride())
	ge.occDelta = make([]int32, len(n.Transitions))
	for t := range ge.occDelta {
		for _, d := range ge.ft.Deltas(t) {
			switch n.Places[d.Place].Kind {
			case petri.PlaceChannel, petri.PlacePort:
				ge.occDelta[t] += int32(d.Delta)
			}
		}
	}
	return ge
}

func findScheduleGraph(n *petri.Net, source int, opt Options) (*Schedule, error) {
	ge := newGraphEngine(n, source, opt)
	st := n.Transitions[source]
	if err := ge.drive(); err != nil {
		return nil, fmt.Errorf("sched: source %s: exploration: %w", st.Name, err)
	}
	if ge.over {
		return nil, fmt.Errorf("sched: source %s: %w (graph engine, %d states)", st.Name, ErrBudget, len(ge.states))
	}
	if !ge.solve() {
		return nil, fmt.Errorf("sched: source %s under %s: %w (graph engine, %d states)", st.Name, opt.Term.Name(), ErrNoSchedule, len(ge.states))
	}
	s := ge.build()
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("sched: internal error: graph engine produced invalid schedule: %v", err)
	}
	return s, nil
}

// rootID is the initial marking's state: petri.Drive interns it first.
const rootID = 0

// drive runs the bounded forward BFS (step 1) through petri.Drive; the
// error is a token overflow. Budget exhaustion is an exploration
// outcome and lands in ge.over.
func (ge *graphEngine) drive() error {
	_, err := petri.Drive(ge.ft, ge.spec, nil, ge.start)
	return err
}

// start readies the engine for the exploration of store, which holds
// only the root, and returns the merge hooks that write adj. Each
// state's successors arrive ECS by ECS (allowed enabled ECSs in
// partition order, members ascending), one Edge or Reject per member,
// so a member that arrives while no group is open names its ECS and
// opens the next group. A vetoed member drops its whole group: the
// members already written are rolled back and the rest are skipped. A
// successor the dropped group interned keeps its state, so the
// numbering does not depend on what adj keeps. Occupancy is a delta off
// the parent: O(1) per new state instead of a marking scan.
func (ge *graphEngine) start(store *petri.MarkingStore) petri.MergeHooks {
	ge.store = store
	ge.states = append(ge.states, gstate{occ: int32(ge.occupancy(store.At(rootID)))})
	open := 0         // successors the open group still expects
	first := int32(0) // where in adj the open group starts
	dropped := false  // whether a member of the open group was vetoed
	advance := func(trans, child int32) {
		if open == 0 {
			open = len(ge.part[ge.ft.ECSOf(int(trans))].Trans)
			first, dropped = int32(len(ge.adj)), false
		}
		open--
		switch {
		case child < 0: // vetoed: drop the group and what it wrote
			ge.adj = ge.adj[:first]
			dropped = true
		case dropped: // an earlier member was vetoed
		case open == 0:
			petri.Push(&ge.adj, child|endMark)
		default:
			petri.Push(&ge.adj, child)
		}
	}
	return petri.MergeHooks{
		BeginState: func(id petri.MarkID) { ge.states[id].start = int32(len(ge.adj)) },
		Admit:      func() bool { return ge.store.Len() < ge.opt.MaxNodes },
		Edge: func(parent petri.MarkID, trans int32, child petri.MarkID, isNew bool) {
			if isNew {
				petri.Push(&ge.states, gstate{occ: ge.states[parent].occ + ge.occDelta[trans]})
			}
			advance(trans, int32(child))
		},
		Reject: func(parent petri.MarkID, trans int32, budget bool) bool {
			if budget {
				ge.over = true
				return false
			}
			advance(trans, -1)
			return true
		},
	}
}

// marking returns a copy of the token vector of state id.
func (ge *graphEngine) marking(id int) petri.Marking {
	return ge.store.Load(nil, petri.MarkID(id))
}

// groupECSs returns the partition indices of state id's groups, in adj
// order. adj does not store them, so they are recovered the way the
// exploration emitted the groups (see petri.ExpandSpec): the allowed
// ECSs enabled at the state's marking, in partition order, minus every
// ECS with a member the caps veto. The result is valid until the next
// call.
func (ge *graphEngine) groupECSs(id int) []int32 {
	ge.mark = ge.store.Load(ge.mark, petri.MarkID(id))
	ge.ft.Init(ge.bits, ge.mark)
	ge.ecss = ge.ecss[:0]
	petri.ForEachMaskedBit(ge.bits, ge.spec.Mask, func(ei int) {
		for _, t := range ge.part[ei].Trans {
			ge.child = ge.ft.Fire(ge.child, ge.mark, t)
			if ge.spec.Veto(ge.child) {
				return
			}
		}
		ge.ecss = append(ge.ecss, int32(ei))
	})
	return ge.ecss
}

// buildReverse assembles the CSR reverse adjacency over every stored
// edge, once; the fixpoint rounds filter it by the shrinking X set
// instead of rebuilding it. Each target's range fills from its end, with
// the states walked in descending order, so the range lists its sources
// ascending.
func (ge *graphEngine) buildReverse() {
	off := make([]int32, len(ge.states)+1)
	for _, t := range ge.adj {
		off[t&math.MaxInt32]++
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	// off[t] is now the end of t's range, and off[len(states)] the
	// total; filling moves each off[t] to the start of t's range.
	ge.revSrc = make([]int32, len(ge.adj))
	ge.revGroup = make([]int32, len(ge.adj))
	for si := len(ge.states) - 1; si >= 0; si-- {
		lo, hi := ge.groups(si)
		for g := lo; g < hi; g = ge.next(g) {
			for _, t := range ge.succ(g) {
				t &= math.MaxInt32
				off[t]--
				ge.revSrc[off[t]] = int32(si)
				ge.revGroup[off[t]] = g
			}
		}
	}
	ge.revOff = off
	ge.dist = make([]int64, len(ge.states))
	ge.queue.init(ge.dist)
}

// solve runs the alternating fixpoint; it returns true when the initial
// marking admits a schedule (the root's source successor stays in X).
func (ge *graphEngine) solve() bool {
	ge.buildReverse()
	ge.inX = make([]bool, len(ge.states))
	for i := range ge.inX {
		ge.inX[i] = true
	}
	for {
		changed := false
		// Closure: a state needs at least one usable ECS; removals
		// cascade across outer rounds.
		for i := range ge.states {
			if !ge.inX[i] {
				continue
			}
			ok := false
			lo, hi := ge.groups(i)
			for g := lo; g < hi && !ok; g = ge.next(g) {
				ok = ge.usable(g)
			}
			if !ok {
				ge.inX[i] = false
				changed = true
			}
		}
		if !ge.inX[rootID] {
			return false
		}
		ge.computeRanks()
		for i, in := range ge.inX {
			if in && ge.dist[i] == unreached {
				ge.inX[i] = false
				changed = true
			}
		}
		if !ge.inX[rootID] {
			return false
		}
		if !changed {
			break
		}
	}
	// The root must be able to fire the source and stay in X.
	g, _ := ge.sourceGroup()
	return g >= 0 && ge.usable(g)
}

// sourceGroup returns the root's group of the source's ECS and that ECS,
// or -1 and nil.
func (ge *graphEngine) sourceGroup() (int32, *petri.ECS) {
	ecss := ge.groupECSs(rootID)
	lo, hi := ge.groups(rootID)
	for i, g := 0, lo; g < hi; i, g = i+1, ge.next(g) {
		if E := ge.part[ecss[i]]; len(E.Trans) == 1 && E.Trans[0] == ge.source {
			return g, E
		}
	}
	return -1, nil
}

// occupancyWeight is the rank penalty per buffered token: paths through
// low-occupancy markings are strongly preferred, which is what makes the
// synthesized channel bounds minimal (unit buffers for the PFC app).
const occupancyWeight = 64

// computeRanks runs a reverse Dijkstra from the root within X: rank(s) =
// min over usable ECSs and successors t of w(s) + rank(t), with
// w(s) = 1 + occupancyWeight * occupancy(s), into ge.dist. A state with
// a finite rank can reach the root inside X; following any
// rank-decreasing choice yields property 5 of the schedule definition.
// Ranks are int64 and unreached is their only sentinel, so a long
// burst's distances, which pass 2³¹, stay exact.
func (ge *graphEngine) computeRanks() {
	// The reverse Dijkstra runs over the prebuilt CSR adjacency and
	// checks a group's usability where it reads it: X does not change
	// during the pass. All buffers are engine-owned and reused, so
	// fixpoint rounds after the first allocate nothing.
	dist := ge.dist
	for i := range dist {
		dist[i] = unreached
	}
	dist[rootID] = 0
	q := &ge.queue
	q.reset()
	q.push(rootID)
	for !q.empty() {
		id := q.pop()
		for e := ge.revOff[id]; e < ge.revOff[id+1]; e++ {
			sid := ge.revSrc[e]
			if !ge.inX[sid] || !ge.usable(ge.revGroup[e]) {
				continue
			}
			// Weight = 1 + occupancyWeight * occupancy, with occupancy
			// precomputed per state at intern time. It belongs to sid
			// alone, and states pop in ascending rank, so the first
			// relaxation that reaches sid is its rank: sid is queued
			// once and never re-keyed.
			if cand := dist[id] + 1 + occupancyWeight*int64(ge.states[sid].occ); cand < dist[sid] {
				dist[sid] = cand
				q.push(sid)
			}
		}
	}
}

// radixHeap is a monotone radix heap (Ahuja, Mehlhorn, Orlin and
// Tarjan, "Faster algorithms for the shortest path problem", JACM
// 1990): a min-queue of ids 0..len(key)-1 ordered by key[id] ≥ 0, for
// callers whose every push is at least the last key popped, as
// Dijkstra's are. Bucket 0 holds the ids whose key equals last, the
// last key popped, and bucket i ≥ 1 those whose key first differs from
// last at bit i-1 (counting from bit 0). When bucket 0 runs empty, the
// lowest non-empty bucket's smallest key becomes last, and that bucket's
// ids all move to lower buckets. Every move lowers an id's bucket, so an
// id moves at most 63 times while it is queued. Ties pop in no
// particular order, which cannot change a shortest distance.
//
// The buckets are lists threaded through next, one link per id,
// allocated once by init: an id may be queued once at a time, and
// key[id] must not change while it is.
type radixHeap struct {
	key  []int64
	next []int32
	head [64]int32 // first id of each bucket; -1 = empty
	used uint64    // bit i is set while bucket i is not empty
	last int64
}

// init sizes the heap for the ids of key and empties it.
func (h *radixHeap) init(key []int64) {
	h.key = key
	h.next = make([]int32, len(key))
	h.reset()
}

// reset empties the heap.
func (h *radixHeap) reset() {
	for i := range h.head {
		h.head[i] = -1
	}
	h.used, h.last = 0, 0
}

func (h *radixHeap) empty() bool { return h.used == 0 }

// push queues id under key[id], which must be at least the last key
// popped.
func (h *radixHeap) push(id int32) {
	b := bits.Len64(uint64(h.key[id] ^ h.last))
	h.next[id] = h.head[b]
	h.head[b] = id
	h.used |= 1 << b
}

// pop removes and returns an id of smallest key; the heap must not be
// empty.
func (h *radixHeap) pop() int32 {
	if h.used&1 == 0 {
		b := bits.TrailingZeros64(h.used)
		first := h.head[b]
		h.head[b] = -1
		h.used &^= 1 << b
		h.last = math.MaxInt64
		for id := first; id >= 0; id = h.next[id] {
			h.last = min(h.last, h.key[id])
		}
		for id := first; id >= 0; {
			next := h.next[id]
			h.push(id)
			id = next
		}
	}
	id := h.head[0]
	if h.head[0] = h.next[id]; h.head[0] < 0 {
		h.used &^= 1
	}
	return id
}

// selArmIndex returns the SELECT arm priority of a singleton ECS, or a
// large value for non-arms.
func (ge *graphEngine) selArmIndex(E *petri.ECS) int {
	if len(E.Trans) != 1 {
		return 1 << 20
	}
	t := ge.net.Transitions[E.Trans[0]]
	for _, a := range t.In {
		p := ge.net.Places[a.Place]
		if ci, ok := p.Cond.(*compile.ChoiceInfo); ok && ci.Kind == compile.ChoiceSelect {
			if len(t.Label) > 3 && t.Label[:3] == "sel" {
				idx := 0
				for _, c := range t.Label[3:] {
					if c < '0' || c > '9' {
						return 1 << 20
					}
					idx = idx*10 + int(c-'0')
				}
				return idx
			}
		}
	}
	return 1 << 20
}

// occupancy returns the total channel/port token count of a marking —
// the buffer memory the marking pins down.
func (ge *graphEngine) occupancy(m petri.Marking) int {
	total := 0
	for i, v := range m {
		switch ge.net.Places[i].Kind {
		case petri.PlaceChannel, petri.PlacePort:
			total += int(v)
		}
	}
	return total
}

// choose picks σ(s) as a group of state id, and returns it with its
// ECS: a usable ECS that makes progress toward the root (some successor
// with smaller rank — this alone guarantees property 5), preferring
// internal activity over awaits, honoring SELECT arm priorities, and
// keeping channel occupancy low so synthesized buffers stay minimal (the
// paper's PFC result: all channels of unit size). A key ends in the
// ECS's partition index, which no other group of the state shares, so
// no two keys tie. It returns -1 and nil if no group qualifies.
func (ge *graphEngine) choose(id int) (int32, *petri.ECS) {
	best, bestKey := int32(-1), [4]int64{}
	var bestE *petri.ECS
	ecss := ge.groupECSs(id)
	lo, hi := ge.groups(id)
	for i, g := 0, lo; g < hi; i, g = i+1, ge.next(g) {
		if !ge.usable(g) {
			continue
		}
		minSucc := int64(unreached)
		for _, t := range ge.succ(g) {
			minSucc = min(minSucc, ge.dist[t&math.MaxInt32])
		}
		if minSucc >= ge.dist[id] {
			continue // no progress toward the root via this ECS
		}
		E := ge.part[ecss[i]]
		key := [4]int64{0, int64(ge.selArmIndex(E)), minSucc, int64(E.Index)}
		if E.IsSourceECS(ge.net) {
			key[0] = 1
		}
		if best < 0 || slices.Compare(key[:], bestKey[:]) < 0 {
			best, bestE, bestKey = g, E, key
		}
	}
	return best, bestE
}

// build emits the schedule induced by σ from the root. Only the states
// it visits need their groups' ECSs, which choose and sourceGroup
// recover from the state's marking.
func (ge *graphEngine) build() *Schedule {
	s := &Schedule{Net: ge.net, Source: ge.source}
	s.Stats = SearchStats{
		NodesCreated:     len(ge.states),
		DistinctMarkings: ge.store.Len(),
		StoreHotBytes:    ge.store.Mem().HotBytes,
	}
	nodeOf := map[int]*Node{}
	var mk func(id int) *Node
	mk = func(id int) *Node {
		if n, ok := nodeOf[id]; ok {
			return n
		}
		// Schedule nodes outlive the engine: copy out of the store.
		n := &Node{ID: len(s.Nodes), Marking: ge.marking(id)}
		nodeOf[id] = n
		s.Nodes = append(s.Nodes, n)
		var g int32
		if id == rootID {
			g, n.ECS = ge.sourceGroup() // the root fires the source
		} else {
			g, n.ECS = ge.choose(id)
		}
		if g < 0 {
			return n // defensive; solve() guarantees a choice
		}
		for j, to := range ge.succ(g) {
			n.Edges = append(n.Edges, Edge{Trans: n.ECS.Trans[j], To: mk(int(to & math.MaxInt32))})
		}
		return n
	}
	s.Root = mk(rootID)
	s.Stats.NodesKept = len(s.Nodes)
	return s
}
