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
// in interning order, so no separate key map is needed. start names
// where the state's run of groups (see graphEngine.pages) begins: its
// page in the high bits and its offset in the low pageBits, so finding
// a run is a shift and a mask. The run ends where the next state's
// begins or, if that is on a later page, with its page. Per-state
// slice headers would be one allocation per (state, ECS) pair, which
// at hundreds of thousands of states is most of the search's
// allocation bill. The fixpoint's standing of each state lives in
// graphEngine.inX instead, made at the exact state count once the
// exploration is over, so this table, which grows by doubling while
// the exploration runs, holds 8 bytes a state, not 12.
//
// Every per-state and per-edge table (states, the pages, the reverse
// CSR, dist and the rank queue's links) holds indices, never pointers.
// A pointer per (state, ECS) pair would put one heap pointer per entry
// into a table the garbage collector then marks on every cycle, and
// each copy on growth would need write barriers. Pointer-free tables
// are never scanned and are copied by a plain memmove. The state table
// grows by petri.Push, which stores only a new length until the table
// reallocates; the pages are never copied at all.
type gstate struct {
	start int32
	occ   int32 // channel/port token occupancy, precomputed at intern
}

// transFacts is what the merge reads of a fired transition: its
// channel/port occupancy delta, and its ECS's member count, the length
// of a group it opens.
type transFacts struct{ occ, members int32 }

// graphEngine is one schedule search. Its tables hold only what the
// fixpoint and build read: the fixpoint needs each group's successors
// and nothing else, so a run stores no ECS, and choose and sourceGroup
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

	// ft fires the exploration and maps a transition to its ECS index.
	// spec is what petri.Drive expands under: its Mask holds the ECSs
	// this schedule may fire (uncontrollable sources other than the
	// schedule's own are excluded in single-source mode), its Caps the
	// place caps. perTrans holds what the merge reads per transition.
	ft       *petri.FiringTable
	spec     petri.ExpandSpec
	perTrans []transFacts

	// pages hold the forward adjacency, one run per state, in state
	// order. A run holds one group per allowed enabled ECS of the state
	// whose successors all stay within the caps, in partition order,
	// made of one successor state per member, the last one flagged with
	// endMark. A group with a successor beyond the caps is never stored:
	// no set X can keep it, since a chosen ECS's successors must all be
	// in X. A run never spans two pages (see turnPage), and no page is
	// ever copied. Pages double from firstPage entries up to
	// 1<<pageBits - 1, which holds the longest run, one successor per
	// transition, and keeps the end of a full page, where an empty run
	// may start, an offset. While the exploration runs, page is the open
	// page, the last of pages, and the open run, that of the state begun
	// last, starts at runLo in it.
	pages     [][]int32
	page      []int32
	runLo     int
	firstPage int
	pageBits  uint

	// inX holds each state's standing in the fixpoint's current X set,
	// one byte per state, made by solve: out of X, or in X and clean
	// (no successor has left X, so every group is usable) or dirty.
	inX []uint8

	// Reverse adjacency in CSR form, built once after exploration: the
	// edges into state t come from the states revSrc[revOff[t]:revOff[t+1]],
	// one per stored successor. It names no group: computeRanks
	// filters it by the current X set, and re-reads the run of a dirty
	// source only. dist is the rank of each state, its weighted
	// distance back to the root inside X (unreached if none), and queue
	// orders the reverse Dijkstra that computes it.
	revOff []int32
	revSrc []int32
	dist   []int64
	queue  radixHeap

	// Scratch of groupECSs, reused for every state it expands: the
	// state's marking, its enabled-ECS set, a successor marking and the
	// resulting list of partition indices.
	mark, child petri.Marking
	bits        []uint64
	ecss        []int32
}

// A state's standing in X, its graphEngine.inX byte.
const (
	xOut   uint8 = iota // not in X
	xClean              // in X, and so is every successor
	xDirty              // in X, with a successor that left it
)

// Adjacency pages start at firstPageLen entries and double up to 64
// KiB, or to the longest possible run if that is longer.
const firstPageLen, minPageBits = 64, 14

// endMark flags the last successor of each group in a run; readers mask it
// off with math.MaxInt32 (state ids are below 2³¹).
const endMark = math.MinInt32

// unreached is the rank of a state that cannot reach the root inside X.
const unreached = math.MaxInt64

// run returns state id's groups: a run inside one page, which ends
// where the next state's begins or, if that is on a later page, with
// the page.
func (ge *graphEngine) run(id int) []int32 {
	s, mask := ge.states[id].start, int32(1)<<ge.pageBits-1
	p := ge.pages[s>>ge.pageBits]
	hi := int32(len(p))
	if id+1 < len(ge.states) {
		if n := ge.states[id+1].start; n>>ge.pageBits == s>>ge.pageBits {
			hi = n & mask
		}
	}
	return p[s&mask : hi]
}

// group splits the groups r into the first one, whose last successor
// carries endMark, and the rest.
func group(r []int32) (g, rest []int32) {
	i := 0
	for r[i] >= 0 {
		i++
	}
	return r[:i+1], r[i+1:]
}

// usable reports whether group g keeps every successor inside the
// current X set.
func (ge *graphEngine) usable(g []int32) bool {
	for _, t := range g {
		if ge.inX[t&math.MaxInt32] == xOut {
			return false
		}
	}
	return true
}

// usableGroup reports whether state s has a usable group and, for t
// >= 0, one that holds successor t.
func (ge *graphEngine) usableGroup(s, t int32) bool {
	for g, r := []int32(nil), ge.run(int(s)); len(r) > 0; {
		g, r = group(r)
		holds := t < 0
		for _, u := range g {
			holds = holds || u&math.MaxInt32 == t
		}
		if holds && ge.usable(g) {
			return true
		}
	}
	return false
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
	ge.firstPage = firstPageLen
	ge.pageBits = uint(max(minPageBits, bits.Len(uint(len(n.Transitions)))))
	ge.perTrans = make([]transFacts, len(n.Transitions))
	for t := range ge.perTrans {
		f := &ge.perTrans[t]
		f.members = int32(len(ge.part[ge.ft.ECSOf(t)].Trans))
		for _, d := range ge.ft.Deltas(t) {
			switch n.Places[d.Place].Kind {
			case petri.PlaceChannel, petri.PlacePort:
				f.occ += int32(d.Delta)
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
	ge.pages[len(ge.pages)-1] = ge.page
	return err
}

// start readies the engine for the exploration of store, which holds
// only the root, and returns the merge hooks that write the runs. Each
// state's successors arrive ECS by ECS (allowed enabled ECSs in
// partition order, members ascending), one Edge or Reject per member,
// so a member that arrives while no group is open names its ECS and
// opens the next group. A vetoed member drops its whole group: the
// members already written are rolled back and the rest are skipped. A
// successor the dropped group interned keeps its state, so the
// numbering does not depend on what the runs keep. Occupancy is a delta
// off the parent: O(1) per new state instead of a marking scan.
func (ge *graphEngine) start(store *petri.MarkingStore) petri.MergeHooks {
	ge.store = store
	ge.states = append(ge.states, gstate{occ: int32(ge.occupancy(store.At(rootID)))})
	// The nine doubling pages and seven full ones fit before the page
	// table regrows; PFC's adjacency takes fourteen.
	ge.page = make([]int32, 0, ge.firstPage)
	ge.pages = append(make([][]int32, 0, 16), ge.page)
	var open int32   // successors the open group still expects
	first := 0       // where in the open run the open group starts
	dropped := false // whether a member of the open group was vetoed
	advance := func(parent petri.MarkID, trans, child int32) {
		if open == 0 {
			open = ge.perTrans[trans].members
			first, dropped = len(ge.page)-ge.runLo, false
		}
		open--
		switch {
		case child < 0: // vetoed: drop the group and what it wrote
			ge.page = ge.page[:ge.runLo+first]
			dropped = true
		case dropped: // an earlier member was vetoed
		case open == 0:
			ge.push(parent, child|endMark)
		default:
			ge.push(parent, child)
		}
	}
	return petri.MergeHooks{
		BeginState: func(id petri.MarkID) {
			ge.runLo = len(ge.page)
			ge.states[id].start = int32(len(ge.pages)-1)<<ge.pageBits | int32(ge.runLo)
		},
		Admit: func() bool { return ge.store.Len() < ge.opt.MaxNodes },
		Edge: func(parent petri.MarkID, trans int32, child petri.MarkID, isNew bool) {
			if isNew {
				petri.Push(&ge.states, gstate{occ: ge.states[parent].occ + ge.perTrans[trans].occ})
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

// push appends v to the open run, state id's.
func (ge *graphEngine) push(id petri.MarkID, v int32) {
	if len(ge.page) == cap(ge.page) {
		ge.turnPage(id)
	}
	ge.page = append(ge.page, v)
}

// turnPage moves the open run, state id's, whole to a fresh page. The
// page it leaves ends where the run began. The fresh page is twice the
// size of the last, up to 1<<pageBits - 1 entries, so it holds the run
// and at least one more entry: a run has at most one entry per
// transition.
func (ge *graphEngine) turnPage(id petri.MarkID) {
	run := ge.page[ge.runLo:]
	ge.pages[len(ge.pages)-1] = ge.page[:ge.runLo]
	ge.page = append(make([]int32, 0, min(2*cap(ge.page), 1<<ge.pageBits-1)), run...)
	petri.Push(&ge.pages, ge.page)
	ge.runLo = 0
	ge.states[id].start = int32(len(ge.pages)-1) << ge.pageBits
}

// marking returns a copy of the token vector of state id.
func (ge *graphEngine) marking(id int) petri.Marking {
	return ge.store.Load(nil, petri.MarkID(id))
}

// groupECSs returns the partition indices of state id's groups, in run
// order. The run does not store them, so they are recovered the way the
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
// successor, once; the fixpoint rounds filter it by the shrinking X set
// instead of rebuilding it. The count walks the pages; the fill walks
// the states in ascending order, so each target's range lists its
// sources ascending.
func (ge *graphEngine) buildReverse() {
	n := len(ge.states)
	off := make([]int32, n+1)
	for _, p := range ge.pages {
		for _, t := range p {
			off[t&math.MaxInt32+1]++
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	// off[t] is now the start of t's range; filling moves it to the
	// start of t+1's, and the shift after it moves it back.
	ge.revSrc = make([]int32, off[n])
	for id := range ge.states {
		for _, t := range ge.run(id) {
			t &= math.MaxInt32
			ge.revSrc[off[t]] = int32(id)
			off[t]++
		}
	}
	copy(off[1:], off)
	off[0] = 0
	ge.revOff = off
	ge.dist = make([]int64, n)
	ge.queue.init(ge.dist)
}

// leave takes state id out of X: the sources of its reverse edges that
// are still clean turn dirty.
func (ge *graphEngine) leave(id int) {
	ge.inX[id] = xOut
	for _, s := range ge.revSrc[ge.revOff[id]:ge.revOff[id+1]] {
		if ge.inX[s] == xClean {
			ge.inX[s] = xDirty
		}
	}
}

// solve runs the alternating fixpoint; it returns true when the initial
// marking admits a schedule (the root's source successor stays in X).
func (ge *graphEngine) solve() bool {
	ge.buildReverse()
	ge.inX = make([]uint8, len(ge.states))
	for i := range ge.inX {
		ge.inX[i] = xClean
	}
	for {
		changed := false
		// Closure: a state needs at least one usable ECS, which a clean
		// one with a group has; removals cascade across outer rounds.
		for i, in := range ge.inX {
			if in == xOut || in == xClean && len(ge.run(i)) > 0 || ge.usableGroup(int32(i), -1) {
				continue
			}
			ge.leave(i)
			changed = true
		}
		if ge.inX[rootID] == xOut {
			return false
		}
		ge.computeRanks()
		for i, in := range ge.inX {
			if in != xOut && ge.dist[i] == unreached {
				ge.leave(i)
				changed = true
			}
		}
		if ge.inX[rootID] == xOut {
			return false
		}
		if !changed {
			break
		}
	}
	// The root must be able to fire the source and stay in X.
	g, _ := ge.sourceGroup()
	return g != nil && ge.usable(g)
}

// sourceGroup returns the root's group of the source's ECS and that ECS,
// or nil and nil.
func (ge *graphEngine) sourceGroup() ([]int32, *petri.ECS) {
	ecss := ge.groupECSs(rootID)
	for i, g, r := 0, []int32(nil), ge.run(rootID); len(r) > 0; i++ {
		g, r = group(r)
		if E := ge.part[ecss[i]]; len(E.Trans) == 1 && E.Trans[0] == ge.source {
			return g, E
		}
	}
	return nil, nil
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
	// The reverse Dijkstra runs over the prebuilt CSR adjacency. A clean
	// source's groups are all usable; a dirty one's run is re-read for a
	// usable group that holds the popped state. X does not change during
	// the pass. All buffers are engine-owned and reused, so fixpoint
	// rounds after the first allocate nothing.
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
		for _, sid := range ge.revSrc[ge.revOff[id]:ge.revOff[id+1]] {
			// Weight = 1 + occupancyWeight * occupancy, with occupancy
			// precomputed per state at intern time. It belongs to sid
			// alone, and states pop in ascending rank, so the first
			// relaxation that reaches sid is its rank: sid is queued
			// once and never re-keyed.
			if dist[sid] != unreached || ge.inX[sid] == xOut || ge.inX[sid] == xDirty && !ge.usableGroup(sid, id) {
				continue
			}
			dist[sid] = dist[id] + 1 + occupancyWeight*int64(ge.states[sid].occ)
			q.push(sid)
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
// no two keys tie. It returns nil and nil if no group qualifies.
func (ge *graphEngine) choose(id int) ([]int32, *petri.ECS) {
	best, bestKey := []int32(nil), [4]int64{}
	var bestE *petri.ECS
	ecss := ge.groupECSs(id)
	for i, g, r := 0, []int32(nil), ge.run(id); len(r) > 0; i++ {
		if g, r = group(r); !ge.usable(g) {
			continue
		}
		minSucc := int64(unreached)
		for _, t := range g {
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
		if best == nil || slices.Compare(key[:], bestKey[:]) < 0 {
			best, bestE, bestKey = g, E, key
		}
	}
	return best, bestE
}

// build emits the schedule induced by σ from the root. Only the states
// it visits need their groups' ECSs, which choose and sourceGroup
// recover from the state's marking.
func (ge *graphEngine) build() *Schedule {
	s := &Schedule{Net: ge.net, Source: ge.source, Part: ge.part}
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
		var g []int32
		if id == rootID {
			g, n.ECS = ge.sourceGroup() // the root fires the source
		} else {
			g, n.ECS = ge.choose(id)
		}
		if g == nil {
			return n // defensive; solve() guarantees a choice
		}
		for j, to := range g {
			n.Edges = append(n.Edges, Edge{Trans: n.ECS.Trans[j], To: mk(int(to & math.MaxInt32))})
		}
		return n
	}
	s.Root = mk(rootID)
	s.Stats.NodesKept = len(s.Nodes)
	return s
}
