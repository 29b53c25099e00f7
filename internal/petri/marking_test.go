package petri

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMarkingBasics(t *testing.T) {
	m := Marking{1, 0, 2}
	c := m.Clone()
	c[0] = 9
	if m[0] != 1 {
		t.Error("Clone should not alias")
	}
	if !m.Equal(Marking{1, 0, 2}) {
		t.Error("Equal failed")
	}
	if m.Equal(Marking{1, 0}) {
		t.Error("Equal with different lengths should be false")
	}
	if m.Total() != 3 {
		t.Errorf("Total = %d, want 3", m.Total())
	}
}

func TestMarkingKeyDistinguishes(t *testing.T) {
	a := Marking{1, 0, 2}
	b := Marking{1, 2, 0}
	if a.Key() == b.Key() {
		t.Error("distinct markings share a key")
	}
	if a.Key() != a.Clone().Key() {
		t.Error("equal markings should share a key")
	}
}

func TestMarkingFormat(t *testing.T) {
	n := New("fmt")
	n.AddPlace("x", PlaceChannel, 0)
	n.AddPlace("y", PlaceChannel, 0)
	if got := (Marking{0, 0}).Format(n); got != "0" {
		t.Errorf("empty marking = %q, want \"0\"", got)
	}
	if got := (Marking{2, 1}).Format(n); got != "x x y" {
		t.Errorf("marking = %q, want \"x x y\"", got)
	}
}

func TestFirePanicsWhenDisabled(t *testing.T) {
	n := simpleNet(t)
	b := n.Transitions[1]
	m := Marking{1, 0} // p1 lacks tokens
	defer func() {
		if recover() == nil {
			t.Error("Fire of disabled transition should panic")
		}
	}()
	m.Fire(b)
}

// TestFireConservation (property): firing changes each place by exactly
// the incidence column of the fired transition.
func TestFireConservation(t *testing.T) {
	n := simpleNet(t)
	c := n.IncidenceMatrix()
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		m := make(Marking, len(n.Places))
		for i := range m {
			m[i] = int32(rng.Intn(5))
		}
		for _, tr := range n.Transitions {
			if !m.Enabled(tr) {
				continue
			}
			after := m.Fire(tr)
			for p := range m {
				if int(after[p]-m[p]) != c[p][tr.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEnabledMonotone (property): adding tokens never disables a
// transition.
func TestEnabledMonotone(t *testing.T) {
	n := simpleNet(t)
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		m := make(Marking, len(n.Places))
		bigger := make(Marking, len(n.Places))
		for i := range m {
			m[i] = int32(rng.Intn(4))
			bigger[i] = m[i] + int32(rng.Intn(3))
		}
		for _, tr := range n.Transitions {
			if m.Enabled(tr) && !bigger.Enabled(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
