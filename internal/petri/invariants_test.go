package petri

import (
	"testing"

	"repro/internal/linalg"
)

func TestTInvariantsOnNet(t *testing.T) {
	// fig8-style net has T-invariants (cycles) but no P-invariants
	// (a source pumps tokens, so no conservation law involves p1).
	n := New("fig8")
	p1 := n.AddPlace("p1", PlaceChannel, 0)
	p2 := n.AddPlace("p2", PlaceChannel, 0)
	p3 := n.AddPlace("p3", PlaceChannel, 0)
	a := n.AddTransition("a", TransSourceUnc)
	b := n.AddTransition("b", TransNormal)
	c := n.AddTransition("c", TransNormal)
	d := n.AddTransition("d", TransNormal)
	e := n.AddTransition("e", TransNormal)
	n.AddArcTP(a, p1, 1)
	n.AddArc(p1, b, 1)
	n.AddArcTP(b, p2, 1)
	n.AddArc(p1, c, 1)
	n.AddArcTP(c, p3, 1)
	n.AddArc(p2, d, 1)
	n.AddArc(p3, e, 2)
	n.AddArcTP(e, p1, 1)
	if got := len(tInvariants(n)); got == 0 {
		t.Error("fig8 net should have T-invariants")
	}
	if got := pInvariants(n); len(got) != 0 {
		t.Errorf("fig8 net should have no P-invariants, got %v", got)
	}
}

func TestPInvariantConservation(t *testing.T) {
	// A bounded-channel pair: ch + space is conserved (the complement
	// construction of linking); verified against random firing runs.
	n := New("bounded")
	ch := n.AddPlace("ch", PlaceChannel, 0)
	space := n.AddPlace("space", PlaceComplement, 3)
	pc1 := n.AddPlace("pc1", PlaceInternal, 1)
	pc2 := n.AddPlace("pc2", PlaceInternal, 1)
	w := n.AddTransition("w", TransNormal)
	r := n.AddTransition("r", TransNormal)
	n.AddArc(pc1, w, 1)
	n.AddArcTP(w, pc1, 1)
	n.AddArc(space, w, 1)
	n.AddArcTP(w, ch, 1)
	n.AddArc(pc2, r, 1)
	n.AddArcTP(r, pc2, 1)
	n.AddArc(ch, r, 1)
	n.AddArcTP(r, space, 1)
	inv := pInvariants(n)
	if len(inv) == 0 {
		t.Fatal("bounded pair should have P-invariants")
	}
	// Find the invariant covering ch+space.
	var cons []int
	for _, y := range inv {
		if y[ch.ID] > 0 && y[space.ID] > 0 {
			cons = y
		}
	}
	if cons == nil {
		t.Fatalf("no conservation law over ch+space in %v", inv)
	}
	// Check constancy over the reachable markings.
	m0 := n.InitialMarking()
	want := InvariantValue(cons, m0)
	res := n.Explore(ExploreOptions{FireSources: true, MaxMarkings: 200})
	for id := range res.Len() {
		if m := res.Store.At(MarkID(id)); InvariantValue(cons, m) != want {
			t.Errorf("marking %s violates the invariant", m.Key())
		}
	}
}

// InvariantValue returns the weighted token sum Σ y(p)·m(p) of a
// P-invariant at a marking.
func InvariantValue(y linalg.Vector, m Marking) int {
	s := 0
	for i, w := range y {
		s += w * int(m[i])
	}
	return s
}

// Structural invariants. T-invariants (firing-count vectors that return
// a marking to itself) drive the scheduling heuristics, which compute
// them from the incidence matrix directly; P-invariants (weighted token
// conservation laws) certify structural properties such as the
// channel/complement pairing of bounded channels.

// tInvariants returns the minimal-support non-negative T-invariant
// basis of the net: vectors x with C·x = 0, one entry per transition.
func tInvariants(n *Net) []linalg.Vector {
	return linalg.TInvariantBasis(n.IncidenceMatrix())
}

// pInvariants returns the minimal-support non-negative P-invariant
// basis of the net: vectors y with yᵀ·C = 0, one entry per place. For
// every P-invariant y, the weighted token sum Σ y(p)·M(p) is constant
// over all reachable markings.
func pInvariants(n *Net) []linalg.Vector {
	c := n.IncidenceMatrix()
	// Transpose: places become columns.
	ct := make([][]int, len(n.Transitions))
	for j := range ct {
		ct[j] = make([]int, len(n.Places))
		for i := range c {
			ct[j][i] = c[i][j]
		}
	}
	return linalg.TInvariantBasis(ct)
}
