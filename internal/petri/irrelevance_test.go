package petri

import "testing"

func TestDegreeDefinition(t *testing.T) {
	n := New("deg")
	p := n.AddPlace("p", PlaceChannel, 0)
	q := n.AddPlace("q", PlaceChannel, 5) // initial marking dominates
	prod := n.AddTransition("prod", TransNormal)
	cons := n.AddTransition("cons", TransNormal)
	n.AddArcTP(prod, p, 3) // max input weight 3
	n.AddArc(p, cons, 2)   // max output weight 2
	n.AddArc(q, cons, 1)
	degs := n.Degrees()
	// degree(p) = 3 + 2 - 1 = 4.
	if got := degs[p.ID]; got != 4 {
		t.Errorf("degree(p) = %d, want 4", got)
	}
	// degree(q) = max(0+1-1, 5) = 5.
	if got := degs[q.ID]; got != 5 {
		t.Errorf("degree(q) = %d, want 5", got)
	}
}

func TestDegreeIsolatedPlace(t *testing.T) {
	n := New("iso")
	p := n.AddPlace("p", PlaceChannel, 0)
	if got := n.Degrees()[p.ID]; got != 0 {
		t.Errorf("degree of isolated place = %d, want 0", got)
	}
}

func TestIrrelevantAgainst(t *testing.T) {
	degrees := []int{1, 2}
	cases := []struct {
		name   string
		m, anc Marking
		want   bool
	}{
		{"equal marking is not irrelevant", Marking{1, 1}, Marking{1, 1}, false},
		{"not covering", Marking{0, 3}, Marking{1, 1}, false},
		{"covering, ancestor saturated", Marking{2, 1}, Marking{1, 1}, true},
		{"covering, ancestor below degree", Marking{1, 2}, Marking{1, 1}, false},
		{"covering, ancestor at degree on grown place", Marking{1, 3}, Marking{1, 2}, true},
		{"strictly bigger everywhere, one unsaturated", Marking{2, 2}, Marking{1, 1}, false},
	}
	for _, c := range cases {
		if got := IrrelevantAgainst(c.m, c.anc, degrees); got != c.want {
			t.Errorf("%s: IrrelevantAgainst(%v, %v) = %v, want %v", c.name, c.m, c.anc, got, c.want)
		}
	}
}

func TestIrrelevantOverAncestorChain(t *testing.T) {
	degrees := []int{1}
	ancestors := []Marking{{0}, {1}}
	if !Irrelevant(Marking{2}, ancestors, degrees) {
		t.Error("2 tokens covering saturated ancestor 1 should be irrelevant")
	}
	if Irrelevant(Marking{1}, []Marking{{0}}, degrees) {
		t.Error("1 token covering unsaturated 0 should not be irrelevant")
	}
}

// TestFig7Narrative reproduces the irrelevance discussion of Figure 7:
// accumulating beyond a saturated place is pruned, but markings that
// exceed a degree without a saturated covering ancestor are kept.
func TestFig7Narrative(t *testing.T) {
	// One place of degree 2; path 0 -> 1 -> 2 -> 3.
	degrees := []int{2}
	chain := []Marking{{0}, {1}, {2}}
	// 3 covers 2 (saturated: 2 >= 2): irrelevant.
	if !Irrelevant(Marking{3}, chain, degrees) {
		t.Error("3 over saturated 2 should be irrelevant")
	}
	// 2 covers 1 (unsaturated: 1 < 2): kept, even though 2 == degree.
	if Irrelevant(Marking{2}, chain[:2], degrees) {
		t.Error("2 over unsaturated 1 should be kept")
	}
}
