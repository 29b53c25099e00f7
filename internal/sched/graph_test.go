package sched

import (
	"errors"
	"fmt"
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
// on refHeap, over the reverse edges of ge's current X set. It derives
// ECS usability from X itself instead of reading ge.usable.
func refRanks(ge *graphEngine) []int64 {
	usable := make([]bool, len(ge.ecsArena))
	for i := range ge.states {
		s := &ge.states[i]
		for j := 0; s.inX && j < ge.ecsCount(s); j++ {
			usable[int(s.ecsStart)+j] = ge.ecsUsable(s, j)
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
		for e := ge.revOff[it.id]; e < ge.revOff[it.id+1]; e++ {
			sid := ge.revSrc[e]
			if !usable[ge.revECS[e]] || !ge.states[sid].inX {
				continue
			}
			if cand := it.d + 1 + occupancyWeight*int64(ge.states[sid].occ); cand < dist[sid] {
				dist[sid] = cand
				h.push(refItem{id: sid, d: cand})
			}
		}
	}
	return dist
}

// CheckRanks is the rank oracle. It runs the graph engine's search for
// source under opt through its fixpoint, ranks the final X set once
// more, and compares every state's rank with refRanks. It returns the
// number of states compared and the largest finite rank. It is
// exported for the tests in package sched_test, which run it on nets
// built by packages that import sched.
func CheckRanks(n *petri.Net, source int, opt *Options) (states int, maxRank int64, err error) {
	o := opt.withDefaults(n, source)
	ge := newGraphEngine(n, source, o)
	if err := ge.drive(); err != nil {
		return 0, 0, err
	}
	if ge.over {
		return 0, 0, ErrBudget
	}
	ge.solve(rootID)
	ge.computeRanks(rootID)
	want := refRanks(ge)
	for id, d := range want {
		if ge.dist[id] != d {
			return 0, 0, fmt.Errorf("state %d of %d: rank %d, reference %d", id, len(want), ge.dist[id], d)
		}
		if d != unreached {
			maxRank = max(maxRank, d)
		}
	}
	return len(want), maxRank, nil
}

// TestRankOraclePaperNets runs the rank oracle on every uncontrollable
// source of the paper figure nets.
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
			if _, _, err := CheckRanks(c.net, src, nil); err != nil {
				t.Errorf("%s, source %s: %v", c.name, c.net.Transitions[src].Name, err)
			}
		}
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
