package petri

import "testing"

// equalChoiceNet: place c feeds t1 and t2 with the same weight (equal
// choice); place u feeds r1 and r2 which also consume distinct internal
// places of one process (unique choice).
func choiceNet(t *testing.T) *Net {
	t.Helper()
	n := New("choice")
	c := n.AddPlace("c", PlaceInternal, 1)
	u := n.AddPlace("u", PlacePort, 1)
	pc1 := n.AddPlace("pc1", PlaceInternal, 1)
	pc2 := n.AddPlace("pc2", PlaceInternal, 0)
	pc1.Process, pc2.Process = "P", "P"
	t1 := n.AddTransition("t1", TransNormal)
	t2 := n.AddTransition("t2", TransNormal)
	n.AddArc(c, t1, 1)
	n.AddArc(c, t2, 1)
	r1 := n.AddTransition("r1", TransNormal)
	r2 := n.AddTransition("r2", TransNormal)
	n.AddArc(u, r1, 1)
	n.AddArc(pc1, r1, 1)
	n.AddArc(u, r2, 1)
	n.AddArc(pc2, r2, 1)
	return n
}

func TestECSPartition(t *testing.T) {
	n := choiceNet(t)
	part := n.ECSPartition()
	// {t1,t2} is one ECS; r1 and r2 have distinct presets; 3 classes.
	if len(part) != 3 {
		t.Fatalf("ECS classes = %d, want 3", len(part))
	}
	idx := ECSIndex(part, len(n.Transitions))
	if idx[0] != idx[1] {
		t.Error("t1 and t2 should share an ECS")
	}
	if idx[2] == idx[3] {
		t.Error("r1 and r2 should not share an ECS")
	}
}

func TestECSEnabledTogether(t *testing.T) {
	n := choiceNet(t)
	part := n.ECSPartition()
	m := n.InitialMarking()
	for _, e := range part {
		if e.Enabled(n, m) {
			for _, tid := range e.Trans {
				if !m.Enabled(n.Transitions[tid]) {
					t.Errorf("ECS enabled but member %s is not", n.Transitions[tid].Name)
				}
			}
		}
	}
}

func TestSourceECSSingleton(t *testing.T) {
	n := New("src")
	n.AddPlace("p", PlaceChannel, 0)
	a := n.AddTransition("a", TransSourceUnc)
	b := n.AddTransition("b", TransSourceCtl)
	n.AddArcTP(a, n.Places[0], 1)
	n.AddArcTP(b, n.Places[0], 1)
	part := n.ECSPartition()
	// Two source transitions with identical (empty) presets must stay
	// in separate singleton ECSs.
	if len(part) != 2 {
		t.Fatalf("source ECSs = %d, want 2", len(part))
	}
	for _, e := range part {
		if !e.IsSourceECS(n) {
			t.Error("expected source ECS")
		}
	}
	if !part[0].IsUncontrollable(n) && !part[1].IsUncontrollable(n) {
		t.Error("one ECS should be uncontrollable")
	}
}

func TestIncidenceMatrix(t *testing.T) {
	n := simpleNet(t)
	c := n.IncidenceMatrix()
	// a: +2 on p1; b: +1 on p0, -2 on p1, -1 on p0 consumed -> net 0 on p0.
	if c[1][0] != 2 {
		t.Errorf("C[p1][a] = %d, want 2", c[1][0])
	}
	if c[0][1] != 0 {
		t.Errorf("C[p0][b] = %d, want 0 (consume 1, produce 1)", c[0][1])
	}
	if c[1][1] != -2 {
		t.Errorf("C[p1][b] = %d, want -2", c[1][1])
	}
}

func TestUncontrollableSources(t *testing.T) {
	n := simpleNet(t)
	got := n.UncontrollableSources()
	if len(got) != 1 || n.Transitions[got[0]].Name != "a" {
		t.Errorf("UncontrollableSources = %v", got)
	}
}
