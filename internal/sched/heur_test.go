package sched

import (
	"testing"

	"repro/internal/petri"
)

func TestTInvariantOrderHasBase(t *testing.T) {
	n := fig8Net(t)
	o := NewTInvariantOrder(n, 0, NewIrrelevance(n))
	if !o.HasBase {
		t.Error("fig8 has invariants containing a; HasBase should be true")
	}
	// A net without any invariant through the source.
	n2 := petri.New("nobase")
	p := n2.AddPlace("p", petri.PlaceChannel, 0)
	a := n2.AddTransition("a", petri.TransSourceUnc)
	n2.AddArcTP(a, p, 1)
	o2 := NewTInvariantOrder(n2, 0, NewIrrelevance(n2))
	if o2.HasBase {
		t.Error("pure producer has no T-invariant; HasBase should be false")
	}
}

func TestTInvariantOrderPrefersReturnPath(t *testing.T) {
	// At the marking p2 of fig8, ECS {d} (on the a,b,d invariant) should
	// be ordered before the source ECS {a}.
	n := fig8Net(t)
	term := NewIrrelevance(n)
	o := NewTInvariantOrder(n, 0, term)
	part := n.ECSPartition()
	m := petri.Marking{0, 1, 0} // p2 marked
	var enabled []*petri.ECS
	for _, e := range part {
		if e.Enabled(n, m) {
			enabled = append(enabled, e)
		}
	}
	got := o.Sort(&OrderContext{
		Net:     n,
		Marking: m,
		Fired:   make([]int, len(n.Transitions)),
		Source:  0,
	}, enabled)
	if len(got) < 2 {
		t.Fatalf("enabled ECSs = %d, want at least {d} and {a}", len(got))
	}
	first := n.Transitions[got[0].Trans[0]]
	if first.Name != "d" {
		t.Errorf("first ECS fires %s, want d (single non-source on the invariant)", first.Name)
	}
	last := n.Transitions[got[len(got)-1].Trans[0]]
	if !last.IsSource() {
		t.Errorf("sources should sort last, got %s", last.Name)
	}
}

func TestNaiveOrderIsIdentity(t *testing.T) {
	n := fig8Net(t)
	part := n.ECSPartition()
	got := NaiveOrder{}.Sort(nil, part)
	for i := range part {
		if got[i] != part[i] {
			t.Fatal("naive order must not reorder")
		}
	}
}
