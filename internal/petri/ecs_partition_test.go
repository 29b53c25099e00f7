package petri

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// legacyECSPartition is the original string-keyed implementation, kept
// verbatim as the reference the sorted-arc grouping must reproduce.
func legacyECSPartition(n *Net) []*ECS {
	presetKey := func(t *Transition) string {
		arcs := make([]Arc, len(t.In))
		copy(arcs, t.In)
		sort.Slice(arcs, func(i, j int) bool { return arcs[i].Place < arcs[j].Place })
		var sb strings.Builder
		for _, a := range arcs {
			fmt.Fprintf(&sb, "%d:%d;", a.Place, a.Weight)
		}
		return sb.String()
	}
	byKey := map[string][]int{}
	var classes [][]int
	for _, t := range n.Transitions {
		if t.IsSource() {
			classes = append(classes, []int{t.ID})
			continue
		}
		k := presetKey(t)
		byKey[k] = append(byKey[k], t.ID)
	}
	for _, ts := range byKey {
		sort.Ints(ts)
		classes = append(classes, ts)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i][0] < classes[j][0] })
	out := make([]*ECS, len(classes))
	for i, ts := range classes {
		out[i] = &ECS{Index: i, Trans: ts}
	}
	return out
}

func assertSamePartition(t *testing.T, name string, n *Net) {
	t.Helper()
	got, want := n.ECSPartition(), legacyECSPartition(n)
	if len(got) != len(want) {
		t.Fatalf("%s: %d classes, legacy %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i].Index != want[i].Index || !reflect.DeepEqual(got[i].Trans, want[i].Trans) {
			t.Fatalf("%s class %d: got %v (index %d), legacy %v (index %d)",
				name, i, got[i].Trans, got[i].Index, want[i].Trans, want[i].Index)
		}
	}
}

// paperChoiceNet rebuilds the free-choice shape of the paper's figures:
// an uncontrollable source feeding a data choice (two transitions with
// the identical preset — one ECS), distinct-preset SELECT-style arms,
// weighted multirate arcs and arcs registered out of place order.
func paperChoiceNet() *Net {
	n := New("paper")
	pin := n.AddPlace("pin", PlaceChannel, 0)
	pc := n.AddPlace("pc", PlaceInternal, 1)
	pa := n.AddPlace("pa", PlaceChannel, 0)
	pb := n.AddPlace("pb", PlaceChannel, 0)
	src := n.AddTransition("src", TransSourceUnc)
	n.AddArcTP(src, pin, 1)
	tt := n.AddTransition("tT", TransNormal)
	tf := n.AddTransition("tF", TransNormal)
	// Same preset, arcs added in opposite order: one ECS.
	n.AddArc(pin, tt, 1)
	n.AddArc(pc, tt, 1)
	n.AddArc(pc, tf, 1)
	n.AddArc(pin, tf, 1)
	n.AddArcTP(tt, pa, 2)
	n.AddArcTP(tf, pb, 1)
	// Distinct presets (different weights on the same place): two ECSs.
	ra := n.AddTransition("ra", TransNormal)
	rb := n.AddTransition("rb", TransNormal)
	n.AddArc(pa, ra, 1)
	n.AddArc(pa, rb, 2)
	// Accumulated duplicate arcs must compare equal to a single arc of
	// the summed weight.
	rc := n.AddTransition("rc", TransNormal)
	n.AddArc(pb, rc, 1)
	n.AddArc(pb, rc, 1)
	rd := n.AddTransition("rd", TransNormal)
	n.AddArc(pb, rd, 2)
	return n
}

// TestECSPartitionMatchesLegacy pins the sorted-arc partition against
// the original string-keyed implementation on hand shapes and a sweep
// of seeded random nets.
func TestECSPartitionMatchesLegacy(t *testing.T) {
	assertSamePartition(t, "paper-choice", paperChoiceNet())

	divider := New("divider")
	p1 := divider.AddPlace("p1", PlaceChannel, 0)
	p2 := divider.AddPlace("p2", PlaceChannel, 0)
	a := divider.AddTransition("a", TransSourceUnc)
	b := divider.AddTransition("b", TransNormal)
	c := divider.AddTransition("c", TransNormal)
	divider.AddArcTP(a, p1, 1)
	divider.AddArc(p1, b, 3)
	divider.AddArcTP(b, p2, 1)
	divider.AddArc(p2, c, 1)
	assertSamePartition(t, "divider", divider)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		assertSamePartition(t, fmt.Sprintf("random-%d", i), randomNet(rng))
	}
}

// TestECSPartitionAllocs: partition construction must not allocate per
// transition beyond the handful of result slices — the old
// implementation built one key string per non-source transition plus a
// map to group them.
func TestECSPartitionAllocs(t *testing.T) {
	n := paperChoiceNet()
	n.ECSPartition()
	allocs := testing.AllocsPerRun(100, func() { n.ECSPartition() })
	// Arena, offsets, id list, class growth, two sort.Slice calls and
	// the ECS arena + pointer slice: a constant-ish set of result
	// buffers (~18 observed), with no per-transition key strings and no
	// grouping map. The legacy implementation paid 2+ allocations per
	// non-source transition on top of this.
	if allocs > 24 {
		t.Fatalf("ECSPartition allocated %.0f times per run", allocs)
	}
}
