package petri

import (
	"fmt"
	"slices"
	"testing"
)

// semiflowBoundsOf returns the semiflow bounds of n under the spec of
// an uncapped exploration, which fires sources when fireSources is set.
func semiflowBoundsOf(n *Net, fireSources bool) []uint32 {
	ft := NewFiringTable(n, n.ECSPartition())
	spec := reachSpec(n, ft.part, ExploreOptions{FireSources: fireSources})
	return semiflowBounds(ft, &spec)
}

// TestSemiflowBounds pins the bound each kind of place gets from the
// P-semiflows of the transitions a spec lets fire:
//   - every place of a ring of rings holds at most its ring's one token;
//   - p and q of a pair that trades one p for two q (split: p -> 2q,
//     merge: 2q -> p) conserve 2p + q, which is 2 at M0 = (1, 0), so p
//     holds at most 1 and q at most 2;
//   - c and d, which trade tokens both ways, get no bound while the
//     source fill may add to c, and hold at most their 2 tokens when
//     the spec does not let fill fire;
//   - fuel, touched only by self-loops, keeps its initial 3 tokens, and
//     the sink-drained e gets no bound.
func TestSemiflowBounds(t *testing.T) {
	const none = MaxTokens
	for _, c := range []struct {
		name        string
		net         *Net
		fireSources bool
		want        []uint32
	}{
		{"rings", ringsNet(2, 3), false, []uint32{1, 1, 1, 1, 1, 1}},
		{"weighted", weightedNet(), false, []uint32{1, 2}},
		{"source-fires", tradeNet(), true, []uint32{none, none, 3, none}},
		{"source-masked", tradeNet(), false, []uint32{2, 2, 3, none}},
	} {
		if got := semiflowBoundsOf(c.net, c.fireSources); !slices.Equal(got, c.want) {
			t.Errorf("%s: bounds %v, want %v", c.name, got, c.want)
		}
	}
}

// weightedNet trades one token of p for two of q and back.
func weightedNet() *Net {
	n := New("weighted")
	p := n.AddPlace("p", PlaceChannel, 1)
	q := n.AddPlace("q", PlaceChannel, 0)
	split := n.AddTransition("split", TransNormal)
	n.AddArc(p, split, 1)
	n.AddArcTP(split, q, 2)
	merge := n.AddTransition("merge", TransNormal)
	n.AddArc(q, merge, 2)
	n.AddArcTP(merge, p, 1)
	return n
}

// tradeNet moves tokens between c (2 tokens) and d, each move
// self-looping on fuel (3 tokens); the source fill adds to c, and the
// sink drop takes from e, which starts with 4.
func tradeNet() *Net {
	n := New("trade")
	c := n.AddPlace("c", PlaceChannel, 2)
	d := n.AddPlace("d", PlaceChannel, 0)
	fuel := n.AddPlace("fuel", PlaceInternal, 3)
	e := n.AddPlace("e", PlaceChannel, 4)
	there := n.AddTransition("there", TransNormal)
	n.AddArc(c, there, 1)
	n.AddArcTP(there, d, 1)
	n.AddSelfLoop(fuel, there, 1)
	back := n.AddTransition("back", TransNormal)
	n.AddArc(d, back, 1)
	n.AddArcTP(back, c, 1)
	n.AddSelfLoop(fuel, back, 1)
	fill := n.AddTransition("fill", TransSourceCtl)
	n.AddArcTP(fill, c, 1)
	drop := n.AddTransition("drop", TransSink)
	n.AddArc(e, drop, 1)
	return n
}

// TestSemiflowBoundsGiveUp: a net whose semiflows the Farkas procedure
// gives up on gets no bounds, and its exploration stores one byte per
// place: a 2,000-place ring, whose [C | I] matrix alone is past the
// work budget. Weights near MaxTokens never overflow the bound: a place
// pair that trades one token of p for MaxTokens of q conserves
// MaxTokens·p + q, which is MaxTokens at M0 = (1, 0), and a chain of two
// such trades needs a weight past int32, so the procedure gives up.
func TestSemiflowBoundsGiveUp(t *testing.T) {
	ring := ringsNet(1, 2000)
	if b := semiflowBoundsOf(ring, false); b != nil {
		t.Fatalf("2,000-place ring: bounds %v, want none", b[:4])
	}
	r := ring.Explore(ExploreOptions{MaxMarkings: 10})
	if !r.Store.narrow || r.Store.rowBytes != 2000 {
		t.Fatalf("2,000-place ring: rows of %d bytes (narrow %v), want one byte per place", r.Store.rowBytes, r.Store.narrow)
	}
	trade := func(steps int) *Net {
		n := New(fmt.Sprintf("trade-%d", steps))
		prev := n.AddPlace("p0", PlaceChannel, 1)
		for i := range steps {
			next := n.AddPlace(fmt.Sprintf("p%d", i+1), PlaceChannel, 0)
			split := n.AddTransition(fmt.Sprintf("split%d", i), TransNormal)
			n.AddArc(prev, split, 1)
			n.AddArcTP(split, next, MaxTokens)
			merge := n.AddTransition(fmt.Sprintf("merge%d", i), TransNormal)
			n.AddArc(next, merge, MaxTokens)
			n.AddArcTP(merge, prev, 1)
			prev = next
		}
		return n
	}
	if got := semiflowBoundsOf(trade(1), false); !slices.Equal(got, []uint32{1, MaxTokens}) {
		t.Errorf("one trade: bounds %v, want [1 %d]", got, MaxTokens)
	}
	if got := semiflowBoundsOf(trade(2), false); got != nil {
		t.Errorf("two trades: bounds %v, want none", got)
	}
}
