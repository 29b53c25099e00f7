package codegen

import (
	"strings"
	"testing"

	"repro/internal/petri"
	"repro/internal/sched"
)

// fig8Net rebuilds the net of Figure 8(a) whose generated code is shown
// in Figure 16 of the paper.
func fig8Net(t *testing.T) *petri.Net {
	t.Helper()
	n := petri.New("example")
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
	return n
}

func fig8Task(t *testing.T) *Task {
	t.Helper()
	n := fig8Net(t)
	s, err := sched.FindSchedule(n, 0, nil)
	if err != nil {
		t.Fatalf("FindSchedule: %v", err)
	}
	task, err := Generate(s, "example")
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return task
}

// nodeCount returns the total number of SegNodes across all segments
// of a task — the paper's code-size proxy: each distinct ECS appears
// exactly once (Figure 14).
func nodeCount(t *Task) int {
	total := 0
	for _, seg := range t.Segments {
		var count func(n *SegNode) int
		count = func(n *SegNode) int {
			c := 1
			for _, e := range n.Edges {
				if e.Child != nil {
					c += count(e.Child)
				}
			}
			return c
		}
		total += count(seg.Root)
	}
	return total
}

func TestFig14CodeSegments(t *testing.T) {
	task := fig8Task(t)
	// Figure 14(c): three code segments — cs1 rooted at {a}, cs2 rooted
	// at {e}, cs3 rooted at {b,c} containing {d}.
	if got := len(task.Segments); got != 3 {
		t.Fatalf("segments = %d, want 3 per Figure 14(c)", got)
	}
	// cs1 (entry) is rooted at the source ECS.
	if task.Segments[0].Root.ECS.Trans[0] != task.Source {
		t.Errorf("segment 0 is not rooted at the source ECS")
	}
	// Total SegNodes: one per distinct ECS = 4 ({a},{b,c},{d},{e}).
	if got := nodeCount(task); got != 4 {
		t.Errorf("segment nodes = %d, want 4 (one per distinct ECS)", got)
	}
	labels := map[string]bool{}
	for _, seg := range task.Segments {
		labels[seg.Label] = true
	}
	for _, want := range []string{"a", "bc", "e"} {
		if !labels[want] {
			t.Errorf("missing segment label %q (have %v)", want, labels)
		}
	}
}

func TestFig16StateVariables(t *testing.T) {
	task := fig8Task(t)
	// Figure 16: p3 is the only state variable.
	if len(task.StateVars) != 1 || task.Net.Places[task.StateVars[0]].Name != "p3" {
		names := []string{}
		for _, p := range task.StateVars {
			names = append(names, task.Net.Places[p].Name)
		}
		t.Fatalf("state vars = %v, want [p3]", names)
	}
}

func TestFig16GeneratedCode(t *testing.T) {
	task := fig8Task(t)
	code := Synthesize(task, nil)
	// Structural fidelity with Figure 16: state variable declaration and
	// initialization, the three labels, the p3 updates, the conditional
	// jump on p3, and a return at thread end.
	for _, want := range []string{
		"int p3;",
		"p3 = 0;",
		"a:",
		"e:",
		"bc:",
		"p3 = p3 - 2;",
		"p3 = p3 + 1;",
		"goto bc;",
		"goto e;",
		"return;",
		"condition(p1)",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("generated code missing %q:\n%s", want, code)
		}
	}
}

func TestLeafStatesDriveJumps(t *testing.T) {
	task := fig8Task(t)
	// The c-branch leaf of segment bc must have two states: p3 == 1 ->
	// return, p3 == 2 -> goto e.
	var bc *Segment
	for _, seg := range task.Segments {
		if seg.Label == "bc" {
			bc = seg
		}
	}
	if bc == nil {
		t.Fatalf("no bc segment")
	}
	var cLeaf *Leaf
	for _, e := range bc.Root.Edges {
		if task.Net.Transitions[e.Trans].Name == "c" && e.Leaf != nil {
			cLeaf = e.Leaf
		}
	}
	if cLeaf == nil {
		t.Fatalf("c edge of bc segment is not a leaf: %+v", bc.Root.Edges)
	}
	if len(cLeaf.States) != 2 {
		t.Fatalf("c leaf states = %d, want 2", len(cLeaf.States))
	}
	seenReturn, seenE := false, false
	for _, st := range cLeaf.States {
		if st.NextECS == -1 {
			seenReturn = true
		} else {
			seenE = true
		}
	}
	if !seenReturn || !seenE {
		t.Errorf("c leaf must offer both return and goto-e continuations")
	}
	// The c path increments p3 by one.
	p3 := task.StateVars[0]
	if cLeaf.Update[p3] != 1 {
		t.Errorf("c leaf update of p3 = %d, want +1", cLeaf.Update[p3])
	}
}
