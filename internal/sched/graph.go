package sched

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

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
// in interning order, so no separate key map is needed. The allowed
// enabled ECSs of the state and their successor lists live in the
// engine's flat arenas (ecsArena/succArena), addressed by [ecsStart,
// ecsEnd) — per-state slice headers would be one allocation per
// (state, ECS) pair, which at hundreds of thousands of states is most
// of the search's allocation bill.
//
// Every per-state and per-edge table (states, the three arenas, the
// reverse CSR, usable, dist and the rank queue's links) holds indices,
// never pointers: an ECS is its partition index, resolved through
// graphEngine.part. A pointer per (state, ECS) pair would put one heap
// pointer per entry into a table the garbage collector then marks on
// every cycle, and each copy on growth would need write barriers.
// Pointer-free tables are never scanned and are copied by a plain
// memmove. The tables the merge appends to grow by petri.Push, which
// stores only a new length until a table reallocates.
type gstate struct {
	ecsStart, ecsEnd int32

	occ int32 // channel/port token occupancy, precomputed at intern
	inX bool
}

type graphEngine struct {
	net    *petri.Net
	source int
	opt    Options
	part   []*petri.ECS
	caps   []int

	store  *petri.MarkingStore
	states []gstate
	over   bool

	// ft fires the exploration and maps a transition to its ECS index,
	// which is how the merge groups successors into ECSs. allowedMask
	// is the ExpandSpec mask: the ECSs this schedule may fire
	// (uncontrollable sources other than the schedule's own are
	// excluded in single-source mode). occDelta is the per-transition
	// channel/port occupancy delta, making the per-state occ field an
	// O(1) increment.
	ft          *petri.FiringTable
	allowedMask []uint64
	occDelta    []int32

	// Flat adjacency. Entry k of ecsArena is one (state, allowed enabled
	// ECS) pair, the ECS as its index into part; its successor states
	// occupy succArena[succOff[k] : succOff[k]+len(part[ecsArena[k]].Trans)],
	// with -1 marking a successor beyond the caps (making the ECS
	// unusable).
	ecsArena  []int32
	succOff   []int32
	succArena []int32

	// Reverse adjacency in CSR form, built once after exploration: edge e
	// lands on target revTo-order with source revSrc[e] via arena entry
	// revECS[e]. computeRanks filters by the current X set instead of
	// rebuilding the adjacency every fixpoint round.
	revOff []int32
	revSrc []int32
	revECS []int32
	// usable[k] caches, per fixpoint round, whether arena entry k keeps
	// every successor inside X. dist is the rank of each state, its
	// weighted distance back to the root inside X (unreached if none),
	// and queue orders the reverse Dijkstra that computes it.
	usable []bool
	dist   []int64
	queue  radixHeap
}

// unreached is the rank of a state that cannot reach the root inside X.
const unreached = math.MaxInt64

// stateECS returns the allowed enabled ECS entries of s as indexes into
// the engine arenas.
func (ge *graphEngine) ecsCount(s *gstate) int { return int(s.ecsEnd - s.ecsStart) }

// succOf returns the successor list of the i-th ECS of s (entries are
// state indexes, -1 = beyond caps).
func (ge *graphEngine) succOf(s *gstate, i int) []int32 {
	k := int(s.ecsStart) + i
	off := ge.succOff[k]
	return ge.succArena[off : off+int32(len(ge.part[ge.ecsArena[k]].Trans))]
}

// ecsAt returns the i-th allowed enabled ECS of s.
func (ge *graphEngine) ecsAt(s *gstate, i int) *petri.ECS {
	return ge.part[ge.ecsArena[int(s.ecsStart)+i]]
}

func newGraphEngine(n *petri.Net, source int, opt Options) *graphEngine {
	ge := &graphEngine{
		net:    n,
		source: source,
		opt:    opt,
		part:   n.ECSPartition(),
	}
	if cp, ok := opt.Term.(CapProvider); ok {
		ge.caps = cp.Caps(n)
	} else {
		ge.caps = NewIrrelevance(n).Caps(n)
	}
	ge.allowedMask = allowedMask(n, ge.part, source, opt.MultiSource)
	ge.ft = petri.NewFiringTable(n, ge.part)
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
	if !ge.solve(rootID) {
		return nil, fmt.Errorf("sched: source %s under %s: %w (graph engine, %d states)", st.Name, opt.Term.Name(), ErrNoSchedule, len(ge.states))
	}
	s := ge.build(rootID)
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
	spec := petri.ExpandSpec{Mask: ge.allowedMask, Caps: ge.caps}
	_, err := petri.Drive(ge.ft, spec, nil, ge.start)
	return err
}

// start readies the engine for the exploration of store, which holds
// only the root, and returns the merge hooks that write the engine
// arenas. Each state's successors arrive ECS by ECS (allowed
// enabled ECSs in partition order, members ascending), one Edge or
// Reject per member, so the first member of a group names its ECS and
// the last one closes it. Occupancy is a delta off the parent: O(1) per
// new state instead of a marking scan.
func (ge *graphEngine) start(store *petri.MarkingStore) petri.MergeHooks {
	ge.store = store
	ge.states = append(ge.states, gstate{occ: int32(ge.occupancy(store.At(rootID)))})
	members := 0 // size of the open ECS group
	mi := 0      // members of the group recorded so far
	advance := func(parent petri.MarkID, trans int32, child int32) {
		if mi == 0 {
			ei := ge.ft.ECSOf(int(trans))
			members = len(ge.part[ei].Trans)
			petri.Push(&ge.ecsArena, int32(ei))
			petri.Push(&ge.succOff, int32(len(ge.succArena)))
		}
		petri.Push(&ge.succArena, child)
		if mi++; mi == members {
			mi = 0
			ge.states[parent].ecsEnd = int32(len(ge.ecsArena))
		}
	}
	return petri.MergeHooks{
		BeginState: func(id petri.MarkID) {
			s := &ge.states[id]
			s.ecsStart = int32(len(ge.ecsArena))
			s.ecsEnd = s.ecsStart
		},
		Admit: func() bool { return ge.store.Len() < ge.opt.MaxNodes },
		Edge: func(parent petri.MarkID, trans int32, child petri.MarkID, isNew bool) {
			if isNew {
				petri.Push(&ge.states, gstate{occ: ge.states[parent].occ + ge.occDelta[trans]})
			}
			advance(parent, trans, int32(child))
		},
		Reject: func(parent petri.MarkID, trans int32, budget bool) bool {
			if budget {
				ge.over = true
				return false
			}
			advance(parent, trans, -1)
			return true
		},
	}
}

// marking returns a copy of the token vector of state id.
func (ge *graphEngine) marking(id int) petri.Marking {
	return ge.store.Load(nil, petri.MarkID(id))
}

// buildReverse assembles the CSR reverse adjacency over every explored
// in-cap edge, once; the fixpoint rounds filter it by the shrinking X
// set instead of rebuilding it.
func (ge *graphEngine) buildReverse() {
	counts := make([]int32, len(ge.states)+1)
	for _, t := range ge.succArena {
		if t >= 0 {
			counts[t+1]++
		}
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	ge.revOff = counts
	total := counts[len(counts)-1]
	ge.revSrc = make([]int32, total)
	ge.revECS = make([]int32, total)
	fill := make([]int32, len(ge.states))
	for si := range ge.states {
		s := &ge.states[si]
		for i := 0; i < ge.ecsCount(s); i++ {
			k := s.ecsStart + int32(i)
			for _, t := range ge.succOf(s, i) {
				if t < 0 {
					continue
				}
				e := ge.revOff[t] + fill[t]
				fill[t]++
				ge.revSrc[e] = int32(si)
				ge.revECS[e] = k
			}
		}
	}
	ge.usable = make([]bool, len(ge.ecsArena))
	ge.dist = make([]int64, len(ge.states))
	ge.queue.init(ge.dist)
}

// ecsUsable reports whether ECS i of state s keeps all successors inside
// the current X set.
func (ge *graphEngine) ecsUsable(s *gstate, i int) bool {
	for _, t := range ge.succOf(s, i) {
		if t < 0 || !ge.states[t].inX {
			return false
		}
	}
	return true
}

// solve runs the alternating fixpoint; it returns true when the initial
// marking admits a schedule (the root's source successor stays in X).
func (ge *graphEngine) solve(rootID int) bool {
	ge.buildReverse()
	for i := range ge.states {
		ge.states[i].inX = true
	}
	for {
		changed := false
		// Closure: a state needs at least one usable ECS; removals
		// cascade across outer rounds.
		for i := range ge.states {
			s := &ge.states[i]
			if !s.inX {
				continue
			}
			ok := false
			for j := 0; j < ge.ecsCount(s); j++ {
				if ge.ecsUsable(s, j) {
					ok = true
					break
				}
			}
			if !ok {
				s.inX = false
				changed = true
			}
		}
		if !ge.states[rootID].inX {
			return false
		}
		ge.computeRanks(rootID)
		for i := range ge.states {
			s := &ge.states[i]
			if s.inX && ge.dist[i] == unreached {
				s.inX = false
				changed = true
			}
		}
		if !ge.states[rootID].inX {
			return false
		}
		if !changed {
			break
		}
	}
	// The root must be able to fire the source and stay in X.
	root := &ge.states[rootID]
	for i := 0; i < ge.ecsCount(root); i++ {
		E := ge.ecsAt(root, i)
		if len(E.Trans) == 1 && E.Trans[0] == ge.source && ge.ecsUsable(root, i) {
			return true
		}
	}
	return false
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
func (ge *graphEngine) computeRanks(rootID int) {
	// Refresh the per-arena-entry usability cache for this round, then
	// run the reverse Dijkstra over the prebuilt CSR adjacency. All
	// buffers are engine-owned and reused, so fixpoint rounds after the
	// first allocate nothing.
	for k := range ge.usable {
		ge.usable[k] = false
	}
	for i := range ge.states {
		s := &ge.states[i]
		if !s.inX {
			continue
		}
		for j := 0; j < ge.ecsCount(s); j++ {
			ge.usable[int(s.ecsStart)+j] = ge.ecsUsable(s, j)
		}
	}
	dist := ge.dist
	for i := range dist {
		dist[i] = unreached
	}
	dist[rootID] = 0
	q := &ge.queue
	q.reset()
	q.push(int32(rootID))
	for !q.empty() {
		id := q.pop()
		for e := ge.revOff[id]; e < ge.revOff[id+1]; e++ {
			if !ge.usable[ge.revECS[e]] {
				continue
			}
			sid := ge.revSrc[e]
			if !ge.states[sid].inX {
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

// choose picks σ(s): a usable ECS that makes progress toward the root
// (some successor with smaller rank — this alone guarantees property 5),
// preferring internal activity over awaits, honoring SELECT arm
// priorities, and keeping channel occupancy low so synthesized buffers
// stay minimal (the paper's PFC result: all channels of unit size).
func (ge *graphEngine) choose(id int) int {
	type cand struct {
		i   int
		key [4]int64
	}
	var cands []cand
	s := &ge.states[id]
	for i := 0; i < ge.ecsCount(s); i++ {
		E := ge.ecsAt(s, i)
		if !ge.ecsUsable(s, i) {
			continue
		}
		minSucc := int64(unreached)
		for _, t := range ge.succOf(s, i) {
			minSucc = min(minSucc, ge.dist[t])
		}
		if minSucc >= ge.dist[id] {
			continue // no progress toward the root via this ECS
		}
		var key [4]int64
		if E.IsSourceECS(ge.net) {
			key[0] = 1
		}
		key[1] = int64(ge.selArmIndex(E))
		key[2] = minSucc
		key[3] = int64(E.Index)
		cands = append(cands, cand{i: i, key: key})
	}
	if len(cands) == 0 {
		return -1
	}
	sort.Slice(cands, func(a, b int) bool {
		for k := 0; k < len(cands[a].key); k++ {
			if cands[a].key[k] != cands[b].key[k] {
				return cands[a].key[k] < cands[b].key[k]
			}
		}
		return false
	})
	return cands[0].i
}

// build emits the schedule induced by σ from the root.
func (ge *graphEngine) build(rootID int) *Schedule {
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
		st := &ge.states[id]
		// Schedule nodes outlive the engine: copy out of the store.
		n := &Node{ID: len(s.Nodes), Marking: ge.marking(id)}
		nodeOf[id] = n
		s.Nodes = append(s.Nodes, n)
		var ecsIdx int
		if id == rootID {
			// The root fires the source.
			ecsIdx = -1
			for i := 0; i < ge.ecsCount(st); i++ {
				if E := ge.ecsAt(st, i); len(E.Trans) == 1 && E.Trans[0] == ge.source {
					ecsIdx = i
					break
				}
			}
		} else {
			ecsIdx = ge.choose(id)
		}
		if ecsIdx < 0 {
			return n // defensive; solve() guarantees a choice
		}
		E := ge.ecsAt(st, ecsIdx)
		n.ECS = E
		succ := ge.succOf(st, ecsIdx)
		for j, tid := range E.Trans {
			n.Edges = append(n.Edges, Edge{Trans: tid, To: mk(int(succ[j]))})
		}
		return n
	}
	s.Root = mk(rootID)
	s.Stats.NodesKept = len(s.Nodes)
	return s
}
