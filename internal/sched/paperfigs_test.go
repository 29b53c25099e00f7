package sched

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/petri"
)

// fig8Net builds the Petri net of Figure 8(a):
//
//	a: source -> p1
//	b: p1 -> p2        (b and c form an equal conflict set on p1)
//	c: p1 -> p3
//	d: p2 -> (sink)
//	e: 2*p3 -> p1
func fig8Net(t *testing.T) *petri.Net {
	t.Helper()
	n := petri.New("fig8")
	p1 := n.AddPlace("p1", petri.PlaceChannel, 0)
	p2 := n.AddPlace("p2", petri.PlaceChannel, 0)
	p3 := n.AddPlace("p3", petri.PlaceChannel, 0)
	a := n.AddTransition("a", petri.TransSourceUnc)
	b := n.AddTransition("b", petri.TransNormal)
	c := n.AddTransition("c", petri.TransNormal)
	d := n.AddTransition("d", petri.TransNormal)
	e := n.AddTransition("e", petri.TransNormal)
	n.AddArcTP(a, p1, 1)
	n.AddArc(p1, b, 1)
	n.AddArcTP(b, p2, 1)
	n.AddArc(p1, c, 1)
	n.AddArcTP(c, p3, 1)
	n.AddArc(p2, d, 1)
	n.AddArc(p3, e, 2)
	n.AddArcTP(e, p1, 1)
	if err := n.Validate(); err != nil {
		t.Fatalf("fig8 net invalid: %v", err)
	}
	return n
}

func TestFig8ScheduleMatchesPaper(t *testing.T) {
	n := fig8Net(t)
	s, err := FindSchedule(n, 0, nil)
	if err != nil {
		t.Fatalf("FindSchedule: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Figure 10(d): the schedule has exactly 7 nodes (r, v1, v2, v3, v5,
	// v6, v7) and two await nodes (r and v3).
	if got := len(s.Nodes); got != 7 {
		var sb strings.Builder
		s.Format(&sb)
		t.Fatalf("schedule has %d nodes, want 7 per Figure 10(d)\n%s", got, sb.String())
	}
	if got := len(s.AwaitNodes()); got != 2 {
		t.Fatalf("schedule has %d await nodes, want 2", got)
	}
	// The involved transitions are all five.
	if got := len(s.InvolvedTransitions()); got != 5 {
		t.Fatalf("involved transitions = %d, want 5", got)
	}
}

func TestFig8ScheduleBounds(t *testing.T) {
	n := fig8Net(t)
	s, err := FindSchedule(n, 0, nil)
	if err != nil {
		t.Fatalf("FindSchedule: %v", err)
	}
	bounds := s.PlaceBounds()
	// Per Figure 10(d) markings: p1 <= 1, p2 <= 1, p3 <= 2.
	want := []int{1, 1, 2}
	for i, w := range want {
		if bounds[i] != w {
			t.Errorf("bound of %s = %d, want %d", n.Places[i].Name, bounds[i], w)
		}
	}
}

// fig4aNet: a single source with a divide-by-two consumer. SSS(a) must
// contain two await nodes (0 and p1).
func fig4aNet(t *testing.T) *petri.Net {
	t.Helper()
	n := petri.New("fig4a")
	p1 := n.AddPlace("p1", petri.PlaceChannel, 0)
	a := n.AddTransition("a", petri.TransSourceUnc)
	c := n.AddTransition("c", petri.TransNormal)
	n.AddArcTP(a, p1, 1)
	n.AddArc(p1, c, 2)
	return n
}

func TestFig4aSingleSourceSchedule(t *testing.T) {
	n := fig4aNet(t)
	s, err := FindSchedule(n, 0, nil)
	if err != nil {
		t.Fatalf("FindSchedule: %v", err)
	}
	if got := len(s.AwaitNodes()); got != 2 {
		t.Fatalf("await nodes = %d, want 2 (0 and p1)", got)
	}
	if got := len(s.Nodes); got != 3 {
		t.Fatalf("nodes = %d, want 3 (0, p1, p1p1)", got)
	}
}

// fig4bNet: a and b are sources feeding p1 and p2; c consumes one of
// each. If both are uncontrollable there is no single-source schedule
// (the schedule for a would need to fire b).
func fig4bNet(bKind petri.TransKind) *petri.Net {
	n := petri.New("fig4b")
	p1 := n.AddPlace("p1", petri.PlaceChannel, 0)
	p2 := n.AddPlace("p2", petri.PlaceChannel, 0)
	a := n.AddTransition("a", petri.TransSourceUnc)
	b := n.AddTransition("b", bKind)
	c := n.AddTransition("c", petri.TransNormal)
	n.AddArcTP(a, p1, 1)
	n.AddArcTP(b, p2, 1)
	n.AddArc(p1, c, 1)
	n.AddArc(p2, c, 1)
	return n
}

func TestFig4bNoSSScheduleWhenBothUncontrollable(t *testing.T) {
	n := fig4bNet(petri.TransSourceUnc)
	if _, err := FindSchedule(n, 0, nil); err == nil {
		t.Fatalf("expected no SS schedule for a when b is uncontrollable")
	}
}

func TestFig4bScheduleWhenBControllable(t *testing.T) {
	// The paper (footnote 2): the same PN has SS schedules if b is
	// specified as controllable.
	n := fig4bNet(petri.TransSourceCtl)
	s, err := FindSchedule(n, 0, nil)
	if err != nil {
		t.Fatalf("FindSchedule: %v", err)
	}
	// The schedule fires a, then b (controllable), then c, back to 0.
	if got := len(s.InvolvedTransitions()); got != 3 {
		t.Fatalf("involved = %d, want 3 (a, b, c)", got)
	}
}

func TestFig4bMultiSourceSchedule(t *testing.T) {
	// With MultiSource enabled, a schedule for a may fire b.
	n := fig4bNet(petri.TransSourceUnc)
	s, err := FindSchedule(n, 0, &Options{MultiSource: true})
	if err != nil {
		t.Fatalf("FindSchedule (multi-source): %v", err)
	}
	found := false
	for _, tr := range s.InvolvedTransitions() {
		if n.Transitions[tr].Name == "b" {
			found = true
		}
	}
	if !found {
		t.Fatalf("multi-source schedule should involve b")
	}
}

// fig5Net builds Figure 5(a): two independent request/response loops
// sharing the resource place p0.
func fig5Net(t *testing.T) *petri.Net {
	t.Helper()
	n := petri.New("fig5")
	p0 := n.AddPlace("p0", petri.PlaceInternal, 1)
	p1 := n.AddPlace("p1", petri.PlaceChannel, 0)
	p2 := n.AddPlace("p2", petri.PlaceChannel, 0)
	p3 := n.AddPlace("p3", petri.PlaceChannel, 0)
	p4 := n.AddPlace("p4", petri.PlaceChannel, 0)
	a := n.AddTransition("a", petri.TransSourceUnc)
	b := n.AddTransition("b", petri.TransNormal)
	c := n.AddTransition("c", petri.TransNormal)
	d := n.AddTransition("d", petri.TransSourceUnc)
	e := n.AddTransition("e", petri.TransNormal)
	f := n.AddTransition("f", petri.TransNormal)
	n.AddArcTP(a, p1, 1)
	n.AddArc(p0, b, 1)
	n.AddArc(p1, b, 1)
	n.AddArcTP(b, p2, 1)
	n.AddArc(p2, c, 1)
	n.AddArcTP(c, p0, 1)
	n.AddArcTP(d, p3, 1)
	n.AddArc(p0, e, 1)
	n.AddArc(p3, e, 1)
	n.AddArcTP(e, p4, 1)
	n.AddArc(p4, f, 1)
	n.AddArcTP(f, p0, 1)
	return n
}

func TestFig5NonInterferingSchedules(t *testing.T) {
	n := fig5Net(t)
	set, err := findAll(n, nil)
	if err != nil {
		t.Fatalf("findAll: %v", err)
	}
	if len(set) != 2 {
		t.Fatalf("schedules = %d, want 2", len(set))
	}
	for _, s := range set {
		// Each schedule returns to the initial marking after a single
		// trigger: exactly one await node (the root).
		if got := len(s.AwaitNodes()); got != 1 {
			t.Errorf("schedule %s: await nodes = %d, want 1",
				n.Transitions[s.Source].Name, got)
		}
	}
	if err := CheckIndependence(set); err != nil {
		t.Fatalf("schedules should be independent: %v", err)
	}
	// Any interleaving of triggers is executable (Definition 4.2).
	inputs := []int{0, 3, 0, 0, 3, 3, 0}
	final, err := executable(n, set, inputs, nil)
	if err != nil {
		t.Fatalf("executable: %v", err)
	}
	if !final.Equal(n.InitialMarking()) {
		t.Fatalf("final marking %v, want initial", final)
	}
}

// fig6Net builds Figure 6(a): the weights of c and f are 2 and the
// resource place p0 holds two tokens, creating interfering schedules.
func fig6Net(t *testing.T) *petri.Net {
	t.Helper()
	n := petri.New("fig6")
	p0 := n.AddPlace("p0", petri.PlaceInternal, 2)
	p1 := n.AddPlace("p1", petri.PlaceChannel, 0)
	p2 := n.AddPlace("p2", petri.PlaceChannel, 0)
	p3 := n.AddPlace("p3", petri.PlaceChannel, 0)
	p4 := n.AddPlace("p4", petri.PlaceChannel, 0)
	a := n.AddTransition("a", petri.TransSourceUnc)
	b := n.AddTransition("b", petri.TransNormal)
	c := n.AddTransition("c", petri.TransNormal)
	d := n.AddTransition("d", petri.TransSourceUnc)
	e := n.AddTransition("e", petri.TransNormal)
	f := n.AddTransition("f", petri.TransNormal)
	n.AddArcTP(a, p1, 1)
	n.AddArc(p0, b, 1)
	n.AddArc(p1, b, 1)
	n.AddArcTP(b, p2, 1)
	n.AddArc(p2, c, 2)
	n.AddArcTP(c, p0, 2)
	n.AddArcTP(d, p3, 1)
	n.AddArc(p0, e, 1)
	n.AddArc(p3, e, 1)
	n.AddArcTP(e, p4, 1)
	n.AddArc(p4, f, 2)
	n.AddArcTP(f, p0, 2)
	return n
}

func TestFig6InterferingSchedulesDetected(t *testing.T) {
	n := fig6Net(t)
	set, err := findAll(n, nil)
	if err != nil {
		t.Fatalf("findAll: %v", err)
	}
	if len(set) != 2 {
		t.Fatalf("schedules = %d, want 2", len(set))
	}
	// Each SS schedule has more than one await node (cannot return to
	// the initial marking after every firing).
	for _, s := range set {
		if got := len(s.AwaitNodes()); got < 2 {
			t.Errorf("schedule %s: await nodes = %d, want >= 2",
				n.Transitions[s.Source].Name, got)
		}
	}
	// The independence check must reject the pair (the place p0 is
	// shared and varies over await nodes).
	if err := CheckIndependence(set); !errors.Is(err, ErrNotIndependent) {
		t.Fatalf("interfering schedules should fail the independence check with ErrNotIndependent, got %v", err)
	}
	// And indeed the run for the sequence "a d" is not fireable further
	// for "a a" — reproduce the paper's stuck scenario "a d a".
	if _, err := executable(n, set, []int{0, 3, 0}, nil); err == nil {
		t.Fatalf("run for sequence a,d,a should not be fireable (interference)")
	}
}

// dividerNet builds a Figure 7-style divider/multiplier chain:
//
//	a: source -> p1
//	b: k*p1 -> p2
//	c: k*p2 -> p3
//	d: p3 -> (k-1)*p4
//	e: p4 -> (sink)
//
// A schedule needs k tokens in p1 and p2, so any uniform place bound
// below k defeats the bounded search, while the irrelevance criterion
// finds the schedule for every k.
func dividerNet(k int) *petri.Net {
	n := petri.New("fig7")
	p1 := n.AddPlace("p1", petri.PlaceChannel, 0)
	p2 := n.AddPlace("p2", petri.PlaceChannel, 0)
	p3 := n.AddPlace("p3", petri.PlaceChannel, 0)
	p4 := n.AddPlace("p4", petri.PlaceChannel, 0)
	a := n.AddTransition("a", petri.TransSourceUnc)
	b := n.AddTransition("b", petri.TransNormal)
	c := n.AddTransition("c", petri.TransNormal)
	d := n.AddTransition("d", petri.TransNormal)
	e := n.AddTransition("e", petri.TransNormal)
	n.AddArcTP(a, p1, 1)
	n.AddArc(p1, b, k)
	n.AddArcTP(b, p2, 1)
	n.AddArc(p2, c, k)
	n.AddArcTP(c, p3, 1)
	n.AddArc(p3, d, 1)
	n.AddArcTP(d, p4, k-1)
	n.AddArc(p4, e, 1)
	return n
}

func TestFig7IrrelevanceBeatsPlaceBounds(t *testing.T) {
	for _, k := range []int{2, 3, 5} {
		n := dividerNet(k)
		// Irrelevance criterion: schedule found.
		s, err := FindSchedule(n, 0, nil)
		if err != nil {
			t.Fatalf("k=%d: irrelevance criterion failed: %v", k, err)
		}
		// The schedule fires a exactly k*k times: count await nodes.
		// (a fires once per await node traversal; the total number of a
		// edges equals k*k.)
		aEdges := 0
		for _, nd := range s.Nodes {
			for _, e := range nd.Edges {
				if e.Trans == 0 {
					aEdges++
				}
			}
		}
		if aEdges != k*k {
			t.Errorf("k=%d: schedule fires a at %d nodes, want %d", k, aEdges, k*k)
		}
		// Uniform bounds below k: search must fail.
		_, err = FindSchedule(n, 0, &Options{Term: UniformBounds(n, k-1)})
		if err == nil {
			t.Errorf("k=%d: place bounds %d should defeat the search", k, k-1)
		}
	}
}

func TestScheduleFormatAndDot(t *testing.T) {
	n := fig8Net(t)
	s, err := FindSchedule(n, 0, nil)
	if err != nil {
		t.Fatalf("FindSchedule: %v", err)
	}
	var txt, dot strings.Builder
	if err := s.Format(&txt); err != nil {
		t.Fatalf("Format: %v", err)
	}
	if !strings.Contains(txt.String(), "(root)") || !strings.Contains(txt.String(), "(await)") {
		t.Errorf("Format output missing root/await annotations:\n%s", txt.String())
	}
	if err := s.Dot(&dot); err != nil {
		t.Fatalf("Dot: %v", err)
	}
	if !strings.Contains(dot.String(), "digraph") {
		t.Errorf("Dot output malformed")
	}
}

func TestNaiveOrderAlsoFindsFig8(t *testing.T) {
	n := fig8Net(t)
	s, err := FindSchedule(n, 0, &Options{Order: NaiveOrder{}})
	if err != nil {
		t.Fatalf("FindSchedule (naive order): %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuildRunAcrossAwaitNodes(t *testing.T) {
	n := fig8Net(t)
	s, err := FindSchedule(n, 0, nil)
	if err != nil {
		t.Fatalf("FindSchedule: %v", err)
	}
	set := []*Schedule{s}
	// Resolver that always picks the edge labeled c when offered (to
	// drive through the p3 path), otherwise edge 0.
	resolve := func(sc *Schedule, nd *Node) int {
		for i, e := range nd.Edges {
			if n.Transitions[e.Trans].Name == "c" {
				return i
			}
		}
		return 0
	}
	final, err := executable(n, set, []int{0, 0}, resolve)
	if err != nil {
		t.Fatalf("executable: %v", err)
	}
	// a c (to await at p3), a: ... c path again joins e firing, ending
	// back at a consistent marking; just require fireability and bounded
	// tokens.
	for i, v := range final {
		if v > 2 {
			t.Errorf("place %s accumulated %d tokens", n.Places[i].Name, v)
		}
	}
}

// findAll computes one schedule per uncontrollable source transition,
// as core does for a linked system.
func findAll(n *petri.Net, opt *Options) ([]*Schedule, error) {
	var out []*Schedule
	for _, src := range n.UncontrollableSources() {
		s, err := FindSchedule(n, src, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sched: net %s has no uncontrollable source transitions", n.Name)
	}
	return out, nil
}

// choiceResolver decides which out-edge to take at a node whose ECS has
// several transitions (a data-dependent choice). It receives the node
// and must return an index into node.Edges; nil always takes edge 0.
type choiceResolver func(s *Schedule, n *Node) int

// buildRun returns the run of a schedule set (Definition 4.1): the
// concatenated transition sequence fired while serving the given
// sequence of uncontrollable source transition IDs, resolving data
// choices with resolve. It reproduces the game of Section 4.2: each
// occurrence is served by walking its schedule from the current await
// node to the next one.
func buildRun(set []*Schedule, inputs []int, resolve choiceResolver) ([]int, error) {
	bySource := map[int]*Schedule{}
	cur := map[int]*Node{}
	for _, s := range set {
		if _, dup := bySource[s.Source]; dup {
			return nil, fmt.Errorf("sched: duplicate schedule for source %d", s.Source)
		}
		bySource[s.Source] = s
		cur[s.Source] = s.Root
	}
	var seq []int
	for pos, src := range inputs {
		s := bySource[src]
		if s == nil {
			return nil, fmt.Errorf("sched: input %d (position %d) has no schedule", src, pos)
		}
		n := cur[src]
		// The await node's single out-edge fires the source itself.
		if !s.IsAwait(n) {
			return nil, fmt.Errorf("sched: schedule of source %d resumed at non-await node %d", src, n.ID)
		}
		seq = append(seq, n.Edges[0].Trans)
		n = n.Edges[0].To
		// Continue until the next await node.
		for !s.IsAwait(n) {
			var k int
			if len(n.Edges) > 1 && resolve != nil {
				k = resolve(s, n)
				if k < 0 || k >= len(n.Edges) {
					return nil, fmt.Errorf("sched: resolver returned invalid edge %d at node %d", k, n.ID)
				}
			}
			seq = append(seq, n.Edges[k].Trans)
			n = n.Edges[k].To
		}
		cur[src] = n
	}
	return seq, nil
}

// executable checks Definition 4.2 on one concrete input sequence: the
// transition sequence of the run must be fireable from the initial
// marking of the net. It returns the final marking.
func executable(net *petri.Net, set []*Schedule, inputs []int, resolve choiceResolver) (petri.Marking, error) {
	seq, err := buildRun(set, inputs, resolve)
	if err != nil {
		return nil, err
	}
	m := net.InitialMarking()
	for i, tid := range seq {
		t := net.Transitions[tid]
		if !m.Enabled(t) {
			return nil, fmt.Errorf("sched: run not fireable: transition %s disabled at position %d", t.Name, i)
		}
		m = m.Fire(t)
	}
	return m, nil
}

// TestTInvariantBasisOfFigures pins the T-invariant basis the Section
// 5.5.2 heuristic starts from on every figure net: its minimal-support
// invariants, each divided by the GCD of its entries, in ascending
// order.
func TestTInvariantBasisOfFigures(t *testing.T) {
	for _, c := range []struct {
		net  *petri.Net
		want []linalg.Vector
	}{
		{fig4aNet(t), []linalg.Vector{{2, 1}}},
		{fig4bNet(petri.TransSourceUnc), []linalg.Vector{{1, 1, 1}}},
		{fig4bNet(petri.TransSourceCtl), []linalg.Vector{{1, 1, 1}}},
		{fig5Net(t), []linalg.Vector{{0, 0, 0, 1, 1, 1}, {1, 1, 1, 0, 0, 0}}},
		{fig6Net(t), []linalg.Vector{{0, 0, 0, 2, 2, 1}, {2, 2, 1, 0, 0, 0}}},
		{dividerNet(3), []linalg.Vector{{9, 3, 1, 1, 2}}},
		{dividerNet(5), []linalg.Vector{{25, 5, 1, 1, 4}}},
		{fig8Net(t), []linalg.Vector{{1, 0, 2, 0, 1}, {1, 1, 0, 1, 0}}},
	} {
		if got := linalg.TInvariantBasis(c.net.IncidenceMatrix()); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: T-invariant basis %v, want %v", c.net.Name, got, c.want)
		}
	}
}
