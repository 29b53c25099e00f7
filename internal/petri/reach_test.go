package petri

import "testing"

func TestExploreBounded(t *testing.T) {
	n := simpleNet(t)
	// Without sources: nothing fires from the initial marking.
	r := n.Explore(ExploreOptions{FireSources: false})
	if r.Len() != 1 {
		t.Errorf("markings without sources = %d, want 1", r.Len())
	}
	// With sources and a token cap, the space closes.
	r = n.Explore(ExploreOptions{FireSources: true, MaxTokensPerPlace: 4})
	if r.Len() < 3 {
		t.Errorf("markings with sources = %d, want several", r.Len())
	}
	if !r.Truncated {
		t.Error("cap should truncate the infinite source-driven space")
	}
}

func TestExploreMaxMarkings(t *testing.T) {
	n := simpleNet(t)
	r := n.Explore(ExploreOptions{FireSources: true, MaxMarkings: 2, MaxTokensPerPlace: 10})
	if r.Len() > 2 {
		t.Errorf("markings = %d, exceeds limit 2", r.Len())
	}
	if !r.Truncated {
		t.Error("limit should mark the result truncated")
	}
}

// TestExploreMaxMarkingsEdge pins the budget at its edge: a budget
// equal to the state count explores everything, one less truncates.
func TestExploreMaxMarkingsEdge(t *testing.T) {
	n := ringsNet(3, 4) // 4^3 = 64 states
	if r := n.Explore(ExploreOptions{MaxMarkings: 64}); r.Len() != 64 || r.Truncated {
		t.Fatalf("MaxMarkings 64: %d states, truncated=%v; want 64, false", r.Len(), r.Truncated)
	}
	if r := n.Explore(ExploreOptions{MaxMarkings: 63}); r.Len() != 63 || !r.Truncated {
		t.Fatalf("MaxMarkings 63: %d states, truncated=%v; want 63, true", r.Len(), r.Truncated)
	}
}

func TestDeadlockMarkings(t *testing.T) {
	n := New("dead")
	p := n.AddPlace("p", PlaceInternal, 1)
	q := n.AddPlace("q", PlaceInternal, 0)
	tr := n.AddTransition("t", TransNormal)
	n.AddArc(p, tr, 1)
	n.AddArcTP(tr, q, 1)
	r := n.Explore(ExploreOptions{})
	dead := r.DeadlockMarkings()
	if len(dead) != 1 {
		t.Fatalf("deadlocks = %v, want exactly the final marking", dead)
	}
}

func TestDeadlockMarkingsNotClipped(t *testing.T) {
	// A budget of 2 markings clips the second marking's exploration:
	// it has enabled transitions whose successors were never recorded,
	// so it must not be reported as a deadlock.
	n := simpleNet(t)
	r := n.Explore(ExploreOptions{FireSources: true, MaxMarkings: 2, MaxTokensPerPlace: 10})
	if !r.Truncated {
		t.Fatal("budget of 2 should truncate")
	}
	for _, id := range r.DeadlockMarkings() {
		if r.Clipped[id] {
			t.Fatalf("clipped marking %d reported as deadlock", id)
		}
		m := r.Store.At(id)
		for _, tr := range n.Transitions {
			if m.Enabled(tr) {
				t.Fatalf("deadlock marking %d has enabled transition %s", id, tr.Name)
			}
		}
	}
}
