package petri

import (
	"strings"
	"testing"
)

func simpleNet(t *testing.T) *Net {
	t.Helper()
	n := New("simple")
	p0 := n.AddPlace("p0", PlaceInternal, 1)
	p1 := n.AddPlace("p1", PlaceChannel, 0)
	a := n.AddTransition("a", TransSourceUnc)
	b := n.AddTransition("b", TransNormal)
	n.AddArcTP(a, p1, 2)
	n.AddArc(p0, b, 1)
	n.AddArc(p1, b, 2)
	n.AddArcTP(b, p0, 1)
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return n
}

func TestNetConstruction(t *testing.T) {
	n := simpleNet(t)
	if got := n.String(); !strings.Contains(got, "2 places, 2 transitions") {
		t.Errorf("String() = %q", got)
	}
	b := n.Transitions[1]
	if w := b.Weight(1); w != 2 {
		t.Errorf("F(p1,b) = %d, want 2", w)
	}
	if w := b.OutWeight(0); w != 1 {
		t.Errorf("F(b,p0) = %d, want 1", w)
	}
	if n.PlaceByName("nope") != nil {
		t.Error("PlaceByName(nope) should be nil")
	}
}

func TestArcAccumulation(t *testing.T) {
	n := New("acc")
	p := n.AddPlace("p", PlaceChannel, 0)
	tr := n.AddTransition("t", TransNormal)
	n.AddArc(p, tr, 1)
	n.AddArc(p, tr, 2)
	if got := tr.Weight(p.ID); got != 3 {
		t.Errorf("accumulated weight = %d, want 3", got)
	}
	if got := len(tr.In); got != 1 {
		t.Errorf("arc count = %d, want 1 (merged)", got)
	}
}

func TestSuccessorsPredecessors(t *testing.T) {
	n := simpleNet(t)
	if got := n.Successors(1); len(got) != 1 || n.Transitions[got[0]].Name != "b" {
		t.Errorf("Successors(p1) = %v", got)
	}
	if got := n.Predecessors(1); len(got) != 1 || n.Transitions[got[0]].Name != "a" {
		t.Errorf("Predecessors(p1) = %v", got)
	}
	// Cache invalidation on mutation.
	c := n.AddTransition("c", TransNormal)
	n.AddArc(n.Places[1], c, 1)
	if got := n.Successors(1); len(got) != 2 {
		t.Errorf("Successors(p1) after mutation = %v, want 2 entries", got)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	n := New("bad")
	p := n.AddPlace("p", PlaceInternal, 0)
	tr := n.AddTransition("t", TransSourceUnc)
	n.AddArc(p, tr, 1) // source with preset
	if err := n.Validate(); err == nil {
		t.Error("source with non-empty preset should fail validation")
	}

	n2 := New("bad2")
	n2.AddPlace("p", PlaceInternal, -1)
	if err := n2.Validate(); err == nil {
		t.Error("negative initial marking should fail validation")
	}
}

// TestParseTokenLimit: an initial marking, a bound and an arc weight
// of exactly MaxTokens are accepted and one more is rejected with an
// error naming the limit, as are repeated arcs whose merged weight
// passes it. Every reader of a net ends in Validate, so the check runs
// on the built net and again on it read back through DecodeNet.
func TestParseTokenLimit(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(n *Net, v int)
	}{
		{"initial marking", func(n *Net, v int) { n.AddPlace("p", PlaceInternal, v) }},
		{"bound", func(n *Net, v int) { n.AddPlace("p", PlaceInternal, 0).Bound = v }},
		{"arc weight", func(n *Net, v int) {
			n.AddArc(n.AddPlace("p", PlaceInternal, 0), n.AddTransition("t", TransNormal), v)
		}},
		{"merged arcs", func(n *Net, v int) {
			p, tr := n.AddPlace("p", PlaceInternal, 0), n.AddTransition("t", TransNormal)
			n.AddArcTP(tr, p, v-1)
			n.AddArcTP(tr, p, 1)
		}},
	} {
		for _, v := range []int{MaxTokens, MaxTokens + 1} {
			n := New("limit")
			c.build(n, v)
			_, _, decErr := DecodeNet(AppendNet(nil, n))
			for _, err := range []error{n.Validate(), decErr} {
				if v == MaxTokens && err != nil {
					t.Errorf("%s %d: %v", c.name, v, err)
				}
				if v > MaxTokens && (err == nil || !strings.Contains(err.Error(), "2147483647")) {
					t.Errorf("%s %d: error %v, want one naming the limit", c.name, v, err)
				}
			}
		}
	}
}

func TestAddArcPanicsOnBadWeight(t *testing.T) {
	n := New("w")
	p := n.AddPlace("p", PlaceInternal, 0)
	tr := n.AddTransition("t", TransNormal)
	defer func() {
		if recover() == nil {
			t.Error("AddArc with weight 0 should panic")
		}
	}()
	n.AddArc(p, tr, 0)
}

func TestSelfLoopPreservesMarking(t *testing.T) {
	n := New("loop")
	p := n.AddPlace("p", PlaceChannel, 3)
	tr := n.AddTransition("t", TransNormal)
	n.AddSelfLoop(p, tr, 2)
	m := n.InitialMarking()
	if !m.Enabled(tr) {
		t.Fatal("self-loop transition should be enabled with 3 >= 2 tokens")
	}
	after := m.Fire(tr)
	if after[p.ID] != 3 {
		t.Errorf("self-loop changed marking: %d, want 3", after[p.ID])
	}
	// Below threshold: disabled.
	m2 := Marking{1}
	if m2.Enabled(tr) {
		t.Error("self-loop should require 2 tokens")
	}
}

func TestKindStrings(t *testing.T) {
	cases := map[string]string{
		TransNormal.String():     "normal",
		TransSourceUnc.String():  "source-unc",
		TransSourceCtl.String():  "source-ctl",
		TransSink.String():       "sink",
		PlaceInternal.String():   "internal",
		PlacePort.String():       "port",
		PlaceChannel.String():    "channel",
		PlaceComplement.String(): "complement",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
