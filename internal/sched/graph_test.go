package sched

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/petri"
)

func TestGraphEngineMatchesTreeOnFig8(t *testing.T) {
	n := fig8Net(t)
	graph, err := FindSchedule(n, 0, &Options{Engine: EngineGraph})
	if err != nil {
		t.Fatalf("graph engine: %v", err)
	}
	tree, err := FindSchedule(n, 0, &Options{Engine: EngineTreeExhaustive})
	if err != nil {
		t.Fatalf("tree engine: %v", err)
	}
	if len(graph.Nodes) != len(tree.Nodes) {
		t.Errorf("graph schedule %d nodes, tree %d nodes", len(graph.Nodes), len(tree.Nodes))
	}
	// Same marking multiset.
	count := func(s *Schedule) map[string]int {
		out := map[string]int{}
		for _, nd := range s.Nodes {
			out[nd.Marking.Key()]++
		}
		return out
	}
	g, tr := count(graph), count(tree)
	for k, v := range g {
		if tr[k] != v {
			t.Errorf("marking %q: graph %d, tree %d", k, v, tr[k])
		}
	}
}

func TestGraphEngineAllPaperNets(t *testing.T) {
	// Every hand net of the paper figures must produce a valid schedule
	// (or correctly fail) under the graph engine; the per-figure
	// assertions live in paperfigs_test.go, this checks cross-engine
	// agreement on schedulability.
	type tc struct {
		name  string
		net   *petri.Net
		wants bool
	}
	cases := []tc{
		{"fig4a", fig4aNet(t), true},
		{"fig4b-unc", fig4bNet(petri.TransSourceUnc), false},
		{"fig4b-ctl", fig4bNet(petri.TransSourceCtl), true},
		{"fig5", fig5Net(t), true},
		{"fig6", fig6Net(t), true},
		{"divider-k3", dividerNet(3), true},
	}
	for _, c := range cases {
		for _, eng := range []Engine{EngineGraph, EngineTreeGreedy, EngineTreeExhaustive} {
			_, err := FindSchedule(c.net, 0, &Options{Engine: eng, NoFallback: true, MaxNodes: 100000})
			got := err == nil
			if got != c.wants {
				t.Errorf("%s engine %d: schedulable = %v, want %v (%v)", c.name, eng, got, c.wants, err)
			}
		}
	}
}

func TestGraphEngineBudget(t *testing.T) {
	n := fig6Net(t)
	_, err := FindSchedule(n, 0, &Options{MaxNodes: 2})
	if err == nil {
		t.Fatal("tiny budget should fail")
	}
}

// TestTokenOverflow: a source that would carry place p from
// MaxTokens-1 past petri.MaxTokens. The tree engines cap no place, so
// the search stops with ErrTokenOverflow naming p; the graph engine
// caps p at its initial count and vetoes the firing, so it finds no
// schedule.
func TestTokenOverflow(t *testing.T) {
	n := petri.New("overflow")
	p := n.AddPlace("p", petri.PlaceChannel, petri.MaxTokens-1)
	src := n.AddTransition("src", petri.TransSourceUnc)
	n.AddArcTP(src, p, 2)
	for _, eng := range []Engine{EngineTreeGreedy, EngineTreeExhaustive} {
		_, err := FindSchedule(n, src.ID, &Options{Engine: eng})
		if !errors.Is(err, petri.ErrTokenOverflow) || !strings.Contains(err.Error(), "place p:") {
			t.Errorf("engine %d: err = %v, want ErrTokenOverflow at p", eng, err)
		}
	}
	if _, err := FindSchedule(n, src.ID, nil); !errors.Is(err, ErrNoSchedule) {
		t.Errorf("graph engine: err = %v, want ErrNoSchedule", err)
	}
}

func TestUserBoundsTermination(t *testing.T) {
	// fig4a needs two tokens in p1; a user bound of 1 forbids it.
	n := fig4aNet(t)
	n.Places[0].Bound = 1
	_, err := FindSchedule(n, 0, &Options{Term: UserBounds(n)})
	if err == nil {
		t.Fatal("user bound 1 should make fig4a unschedulable")
	}
	n.Places[0].Bound = 2
	s, err := FindSchedule(n, 0, &Options{Term: UserBounds(n)})
	if err != nil {
		t.Fatalf("user bound 2 should admit the schedule: %v", err)
	}
	if got := s.PlaceBounds()[0]; got != 2 {
		t.Errorf("bound used = %d, want 2", got)
	}
}

// TestDiagnose: the graph engine's verdict on an unschedulable net
// wraps ErrNoSchedule and names the source, the termination condition
// and the number of states the search explored.
func TestDiagnose(t *testing.T) {
	n := fig4bNet(petri.TransSourceUnc)
	_, err := FindSchedule(n, 0, nil)
	if !errors.Is(err, ErrNoSchedule) {
		t.Fatalf("fig4b: error %v does not wrap ErrNoSchedule", err)
	}
	const want = "sched: source a under irrelevance: no schedule in the search space (graph engine, 2 states)"
	if err.Error() != want {
		t.Errorf("fig4b: error %q, want %q", err, want)
	}
	if _, err := FindSchedule(fig5Net(t), 0, nil); err != nil {
		t.Errorf("fig5 should be schedulable: %v", err)
	}
}

func TestScheduleAwaitResume(t *testing.T) {
	// fig6's SSS(a) has two await nodes; a run of a,a must resume at the
	// intermediate await and return to the root await.
	n := fig6Net(t)
	s, err := FindSchedule(n, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := buildRun([]*Schedule{s}, []int{0, 0}, nil)
	if err != nil {
		t.Fatalf("buildRun: %v", err)
	}
	m := n.InitialMarking()
	for _, tid := range seq {
		if !m.Enabled(n.Transitions[tid]) {
			t.Fatalf("run not fireable at %s", n.Transitions[tid].Name)
		}
		m = m.Fire(n.Transitions[tid])
	}
	if !m.Equal(n.InitialMarking()) {
		t.Errorf("two triggers should return fig6 to the initial marking, got %v", m)
	}
}

func TestMutuallyIndependentDiagnostics(t *testing.T) {
	n := fig6Net(t)
	set, err := findAll(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, why := MutuallyIndependent(set[0], set[1])
	if ok || why == "" {
		t.Errorf("fig6 schedules should report an interference diagnostic, got ok=%v %q", ok, why)
	}
	if bounds := CombinedPlaceBounds(set); len(bounds) != len(n.Places) {
		t.Errorf("CombinedPlaceBounds length %d", len(bounds))
	}
	if CombinedPlaceBounds(nil) != nil {
		t.Error("empty set should give nil bounds")
	}
}

// TestGraphEngineAllocAmortized pins the zero-alloc property of the
// graph engine's inner loop: allocations must not scale with the number
// of fired transitions. A k=8 divider visits hundreds of states and
// fires thousands of transitions; the engine may allocate for its
// arenas and per-state metadata (amortized growth), but the per-fired-
// transition hot pair (FireInto + store probe) contributes nothing —
// the total must stay far below the fired-transition count.
func TestGraphEngineAllocAmortized(t *testing.T) {
	n := dividerNet(24)
	s, err := FindSchedule(n, 0, nil)
	if err != nil {
		t.Fatalf("warmup search: %v", err)
	}
	states := s.Stats.NodesCreated
	if states < 10000 {
		t.Fatalf("divider-24 visited only %d states; test net too small to be meaningful", states)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := FindSchedule(n, 0, nil); err != nil {
			t.Fatal(err)
		}
	})
	// Every state fires at least one transition; per-fired-transition
	// allocation would show up as allocs >= states (~30000 here). What
	// remains scales with the *emitted schedule* (~625 kept nodes plus
	// validation) and amortized arena growth — an order of magnitude
	// below the state count.
	if allocs > float64(states)/4 {
		t.Fatalf("search allocated %.0f objects for %d states — inner loop is allocating per transition", allocs, states)
	}
}

// TestTreeEngineAllocsPerNode pins the allocation behaviour of the EP
// tree engines the way the graph search is pinned: expansion must not
// allocate per (node, ECS) pair. Each created node inherently costs a
// handful of allocations (the treeNode, its kids map entries, the
// ordering heuristic's scratch); what this test rules out is the old
// per-node enabled-slice + pass-split behaviour growing with the
// partition size on top of that.
func TestTreeEngineAllocsPerNode(t *testing.T) {
	n := dividerNet(6)
	for _, eng := range []struct {
		name string
		e    Engine
	}{
		{"greedy", EngineTreeGreedy},
		{"exhaustive", EngineTreeExhaustive},
	} {
		opt := &Options{Engine: eng.e, NoFallback: true}
		s, err := FindSchedule(n, 0, opt)
		if err != nil {
			t.Fatalf("%s warmup: %v", eng.name, err)
		}
		nodes := s.Stats.NodesCreated
		if nodes < 50 {
			t.Fatalf("%s: only %d nodes; net too small to be meaningful", eng.name, nodes)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := FindSchedule(n, 0, opt); err != nil {
				t.Fatal(err)
			}
		})
		perNode := allocs / float64(nodes)
		// With the T-invariant heuristic active, each expanded node pays
		// for its treeNode, kids map and the heuristic's promising-vector
		// math; 40 per node is far below the old additional
		// O(|partition|) slice churn yet leaves headroom for map resizes.
		if perNode > 40 {
			t.Fatalf("%s: %.0f allocs for %d nodes (%.1f/node) — expansion is allocating per (node, ECS)",
				eng.name, allocs, nodes, perNode)
		}
	}
}

// refItem and refHeap are the binary min-heap computeRanks ran on
// before its radix heap: with lazy deletion, so a state may be queued
// more than once.
type refItem struct {
	id int32
	d  int64
}

type refHeap struct {
	items []refItem
}

func (h *refHeap) Len() int { return len(h.items) }

func (h *refHeap) push(it refItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].d <= h.items[i].d {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *refHeap) pop() refItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.items[l].d < h.items[small].d {
			small = l
		}
		if r < len(h.items) && h.items[r].d < h.items[small].d {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}

// refRanks is the reference for computeRanks: the textbook Dijkstra,
// on refHeap, over ge's current X set. It builds its own reverse edges
// from the forward runs, one per successor of a group that keeps every
// successor in X, so it shares neither the engine's reverse index nor
// its clean/dirty shortcut.
func refRanks(ge *graphEngine) []int64 {
	in := func(t int32) bool { return ge.inX[t&math.MaxInt32] != xOut }
	rev := make([][]int32, len(ge.states))
	for id := range ge.states {
		if !in(int32(id)) {
			continue
		}
		for r := ge.run(id); len(r) > 0; {
			end := slices.IndexFunc(r, func(t int32) bool { return t < 0 }) + 1
			g := r[:end]
			if r = r[end:]; !slices.ContainsFunc(g, func(t int32) bool { return !in(t) }) {
				for _, t := range g {
					rev[t&math.MaxInt32] = append(rev[t&math.MaxInt32], int32(id))
				}
			}
		}
	}
	dist := make([]int64, len(ge.states))
	for i := range dist {
		dist[i] = unreached
	}
	dist[rootID] = 0
	var h refHeap
	h.push(refItem{id: rootID})
	for h.Len() > 0 {
		it := h.pop()
		if it.d > dist[it.id] {
			continue
		}
		for _, sid := range rev[it.id] {
			if cand := it.d + 1 + occupancyWeight*int64(ge.states[sid].occ); cand < dist[sid] {
				dist[sid] = cand
				h.push(refItem{id: sid, d: cand})
			}
		}
	}
	return dist
}

// checkAdjacency is the adjacency oracle. It rebuilds every state's run
// from the state's stored marking alone, without the merge hooks that
// wrote the pages: one group per allowed ECS enabled there, in
// partition order, unless the caps veto one of its members, and per
// member the id the store holds its successor under, the last one
// flagged with endMark. It decodes each state's start itself and walks
// the runs in state order: a run must lie inside the page it starts in
// and hold exactly the rebuilt groups, and it must end where the next
// state's run starts or, if that is on a later page, with its page,
// every page in between empty. The ECSs of the rebuilt groups must also
// be what groupECSs recovers for the state, which is all that choose
// and sourceGroup know of a group's ECS.
func checkAdjacency(ge *graphEngine) error {
	spec := ge.spec
	mask := int32(1)<<ge.pageBits - 1
	for pg, p := range ge.pages {
		if cap(p) > int(mask) {
			return fmt.Errorf("page %d holds %d entries, more than %d", pg, cap(p), mask)
		}
	}
	// empty reports whether the pages from lo up to hi hold nothing.
	empty := func(lo, hi int) bool {
		return !slices.ContainsFunc(ge.pages[lo:hi], func(p []int32) bool { return len(p) > 0 })
	}
	var m, child petri.Marking
	var run, want []int32
	for id := range ge.states {
		m = ge.store.Load(m, petri.MarkID(id))
		run, want = run[:0], want[:0]
	ecs:
		for _, E := range ge.part {
			if spec.Mask[E.Index/64]&(1<<(E.Index%64)) == 0 || !E.Enabled(ge.net, m) {
				continue
			}
			n := len(run)
			for _, t := range E.Trans {
				child = m.FireInto(child, ge.net.Transitions[t])
				if spec.Veto(child) {
					run = run[:n]
					continue ecs // no group: the caps veto a member
				}
				sid, ok := ge.store.LookupHashed(child, petri.HashMarking(child))
				if !ok {
					return fmt.Errorf("state %d: successor by %s is not in the store", id, ge.net.Transitions[t].Name)
				}
				run = append(run, int32(sid))
			}
			run[len(run)-1] |= endMark
			want = append(want, int32(E.Index))
		}
		s := ge.states[id].start
		pg, lo := int(s>>ge.pageBits), int(s&mask)
		if pg >= len(ge.pages) || lo > len(ge.pages[pg]) {
			return fmt.Errorf("state %d: run starts at offset %d of page %d, past the pages", id, lo, pg)
		}
		if id == rootID && (lo != 0 || !empty(0, pg)) {
			return fmt.Errorf("state 0: run starts at offset %d of page %d, want the first entry", lo, pg)
		}
		page := ge.pages[pg]
		if lo+len(run) > len(page) {
			return fmt.Errorf("state %d: run of %d entries at offset %d spans the end of page %d (%d entries)", id, len(run), lo, pg, len(page))
		}
		for j, t := range run {
			if got := page[lo+j]; got != t {
				return fmt.Errorf("state %d: run entry %d is %s, want %s", id, j, succName(got), succName(t))
			}
		}
		end, npg, next := lo+len(run), len(ge.pages), 0
		if id+1 < len(ge.states) {
			npg, next = int(ge.states[id+1].start>>ge.pageBits), int(ge.states[id+1].start&mask)
		}
		switch {
		case npg == pg && next != end:
			return fmt.Errorf("state %d: run ends at offset %d of page %d, the next one starts at %d", id, end, pg, next)
		case npg < pg || npg > pg && (end != len(page) || next != 0 || !empty(pg+1, min(npg, len(ge.pages)))):
			return fmt.Errorf("state %d: run ends at offset %d of page %d (%d entries), the next one starts at offset %d of page %d", id, end, pg, len(page), next, npg)
		}
		if got := ge.groupECSs(id); !slices.Equal(got, want) {
			return fmt.Errorf("state %d: groupECSs recovers ECSs %v, want %v", id, got, want)
		}
	}
	return nil
}

// succName formats a run entry: the successor's state id, and whether
// it carries endMark.
func succName(t int32) string {
	if t < 0 {
		return fmt.Sprintf("%d (end of group)", t&math.MaxInt32)
	}
	return fmt.Sprint(t)
}

// pageCases counts what one exploration's merge did at page turns: runs
// that moved whole to a fresh page with entries in them, vetoed groups
// rolled back after a page turn that came while the group was open, and
// states without groups at a page boundary (their empty run starts a
// page or ends one).
type pageCases struct{ moved, rolledBack, emptyAtEdge int }

// drivePaged runs ge's exploration like drive, with its first page
// firstPage entries long (0 keeps the default), and counts its page
// cases.
func drivePaged(ge *graphEngine, firstPage int) (pageCases, error) {
	if firstPage > 0 {
		ge.firstPage = firstPage
	}
	var c pageCases
	turned := false // whether a page turned while the open group was open
	start := func(store *petri.MarkingStore) petri.MergeHooks {
		h := ge.start(store)
		edge, reject := h.Edge, h.Reject
		// member is the position of trans in its ECS; 0 opens a group.
		member := func(trans int32) int {
			return slices.Index(ge.part[ge.ft.ECSOf(int(trans))].Trans, int(trans))
		}
		h.Edge = func(parent petri.MarkID, trans int32, child petri.MarkID, isNew bool) {
			pages, run := len(ge.pages), len(ge.page)-ge.runLo
			turned = turned && member(trans) > 0
			edge(parent, trans, child, isNew)
			if len(ge.pages) > pages {
				turned = true
				if run > 0 {
					c.moved++
				}
			}
		}
		h.Reject = func(parent petri.MarkID, trans int32, budget bool) bool {
			written := len(ge.page)
			turned = turned && member(trans) > 0
			ok := reject(parent, trans, budget)
			if turned && len(ge.page) < written {
				c.rolledBack++
			}
			return ok
		}
		return h
	}
	_, err := petri.Drive(ge.ft, ge.spec, nil, start)
	ge.pages[len(ge.pages)-1] = ge.page
	if err != nil || ge.over {
		return c, err
	}
	for id := range ge.states {
		if len(ge.run(id)) > 0 {
			continue
		}
		s, mask := ge.states[id].start, int32(1)<<ge.pageBits-1
		pg, lo := s>>ge.pageBits, int(s&mask)
		last := id+1 == len(ge.states) || ge.states[id+1].start>>ge.pageBits > pg
		if lo == 0 && pg > 0 || lo == len(ge.pages[pg]) && last {
			c.emptyAtEdge++
		}
	}
	return c, err
}

// checkEngine runs the graph engine's search for source under opt
// through its fixpoint, with its first adjacency page firstPage entries
// long (0 keeps the default), ranks the final X set once more, and
// compares every state's rank with refRanks. With adjacency set it
// first checks the explored graph with checkAdjacency. With a positive
// firstPage, the schedule the engine builds must equal FindSchedule's,
// which runs at the default page sizes. It returns the engine, its page
// cases and the largest finite rank.
func checkEngine(n *petri.Net, source int, opt *Options, adjacency bool, firstPage int) (*graphEngine, pageCases, int64, error) {
	o := opt.withDefaults(n, source)
	ge := newGraphEngine(n, source, o)
	cases, err := drivePaged(ge, firstPage)
	if err != nil {
		return nil, cases, 0, err
	}
	if ge.over {
		return nil, cases, 0, ErrBudget
	}
	if adjacency {
		if err := checkAdjacency(ge); err != nil {
			return nil, cases, 0, err
		}
	}
	ok := ge.solve()
	ge.computeRanks()
	want := refRanks(ge)
	var maxRank int64
	for id, d := range want {
		if ge.dist[id] != d {
			return nil, cases, 0, fmt.Errorf("state %d of %d: rank %d, reference %d", id, len(want), ge.dist[id], d)
		}
		if d != unreached {
			maxRank = max(maxRank, d)
		}
	}
	if firstPage > 0 {
		ref, err := FindSchedule(n, source, opt)
		if (err == nil) != ok {
			return nil, cases, 0, fmt.Errorf("first page %d: schedulable %v, at the default pages %v", firstPage, ok, err)
		}
		if ok {
			var got, want strings.Builder
			ge.build().Format(&got)
			ref.Format(&want)
			if got.String() != want.String() {
				return nil, cases, 0, fmt.Errorf("first page %d: schedule\n%s\nat the default pages\n%s", firstPage, got.String(), want.String())
			}
		}
	}
	return ge, cases, maxRank, nil
}

// CheckRanks is the rank oracle (see checkEngine), exported for the
// tests in package sched_test, which run it on nets built by packages
// that import sched. It returns the number of states compared and the
// largest finite rank.
func CheckRanks(n *petri.Net, source int, opt *Options, adjacency bool, firstPage int) (states int, maxRank int64, err error) {
	ge, _, maxRank, err := checkEngine(n, source, opt, adjacency, firstPage)
	if err != nil {
		return 0, 0, err
	}
	return len(ge.states), maxRank, nil
}

// TestRankOraclePaperNets runs the rank and adjacency oracles on every
// uncontrollable source of the paper figure nets. Of these nets, PFC,
// multirate and 150 generated corpus apps, only fig. 8's search has a
// group the caps veto in part (3 of its 28 groups), so fig. 8 alone
// checks that the merge rolls back such a group's members.
func TestRankOraclePaperNets(t *testing.T) {
	for _, c := range []struct {
		name string
		net  *petri.Net
	}{
		{"fig4a", fig4aNet(t)},
		{"fig4b-unc", fig4bNet(petri.TransSourceUnc)},
		{"fig4b-ctl", fig4bNet(petri.TransSourceCtl)},
		{"fig5", fig5Net(t)},
		{"fig6", fig6Net(t)},
		{"fig8", fig8Net(t)},
		{"divider-k3", dividerNet(3)},
		{"divider-k24", dividerNet(24)},
	} {
		for _, src := range c.net.UncontrollableSources() {
			if _, _, err := CheckRanks(c.net, src, nil, true, 0); err != nil {
				t.Errorf("%s, source %s: %v", c.name, c.net.Transitions[src].Name, err)
			}
		}
	}
}

// TestAdjacencyPages runs fig. 8's search with first adjacency pages of
// 1 to 16 entries, so that its runs cross page boundaries at every
// offset its 18 entries allow. Both oracles must pass, and each
// schedule must equal the one at the default page sizes. Over the
// sweep, runs move whole to a fresh page, a vetoed group is rolled back
// after its run moved (fig. 8's state [p1 p3 p3] writes b, then the
// caps veto c), and a state without groups sits at a page boundary.
// TestRankOracleApps runs PFC and corpus apps the same way.
func TestAdjacencyPages(t *testing.T) {
	n := fig8Net(t)
	var all pageCases
	for first := 1; first <= 16; first++ {
		_, c, _, err := checkEngine(n, 0, nil, true, first)
		if err != nil {
			t.Fatalf("first page %d: %v", first, err)
		}
		all.moved += c.moved
		all.rolledBack += c.rolledBack
		all.emptyAtEdge += c.emptyAtEdge
	}
	if all.moved == 0 || all.rolledBack == 0 || all.emptyAtEdge == 0 {
		t.Errorf("page cases %+v: want each one met", all)
	}
}

// TestRadixHeap checks the rank queue against a sort: equal keys, keys
// spread over 2⁴⁰, and pushes equal to the last key popped, with ids
// re-pushed after they pop.
func TestRadixHeap(t *testing.T) {
	const ids = 512
	key := make([]int64, ids)
	var h radixHeap
	h.init(key)

	// Equal keys: every id pops once, all at the same key.
	for id := range int32(ids) {
		key[id] = 7
		h.push(id)
	}
	seen := make([]bool, ids)
	for range ids {
		id := h.pop()
		if key[id] != 7 || seen[id] {
			t.Fatalf("equal keys: popped id %d (key %d, seen %v)", id, key[id], seen[id])
		}
		seen[id] = true
	}
	if !h.empty() {
		t.Fatal("equal keys: heap not empty after popping every id")
	}

	// Keys spread over 2⁴⁰, interleaved with pushes at or above the
	// last key popped, a third of them equal to it.
	rng := rand.New(rand.NewPCG(1, 2))
	h.reset()
	var queued []int64 // the model: keys of the queued ids
	free := make([]int32, 0, ids)
	for id := range int32(ids) {
		free = append(free, id)
	}
	push := func(k int64) {
		id := free[len(free)-1]
		free = free[:len(free)-1]
		key[id] = k
		h.push(id)
		queued = append(queued, k)
	}
	for range ids / 2 {
		push(rng.Int64N(1 << 40))
	}
	last := int64(0)
	for pops := 0; len(queued) > 0; pops++ {
		slices.Sort(queued)
		id := h.pop()
		if key[id] != queued[0] || key[id] < last {
			t.Fatalf("pop %d: key %d, want %d (last %d)", pops, key[id], queued[0], last)
		}
		last, queued = key[id], queued[1:]
		free = append(free, id)
		if pops < 4*ids {
			for range rng.IntN(3) {
				switch {
				case len(free) == 0:
				case rng.IntN(3) == 0:
					push(last)
				default:
					push(last + rng.Int64N(1<<40))
				}
			}
		}
	}
	if !h.empty() {
		t.Fatal("spread keys: heap not empty after the model drained")
	}
}
