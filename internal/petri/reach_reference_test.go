package petri

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// ringsNet builds `pipes` independent token rings of `stages` places
// each: the reachable space is the product of the ring positions
// (stages^pipes states), a scalable shape spanning many BFS levels.
func ringsNet(pipes, stages int) *Net {
	n := New(fmt.Sprintf("rings-%dx%d", pipes, stages))
	for p := 0; p < pipes; p++ {
		var ps []*Place
		for s := 0; s < stages; s++ {
			init := 0
			if s == 0 {
				init = 1
			}
			ps = append(ps, n.AddPlace(fmt.Sprintf("r%d_%d", p, s), PlaceInternal, init))
		}
		for s := 0; s < stages; s++ {
			t := n.AddTransition(fmt.Sprintf("t%d_%d", p, s), TransNormal)
			n.AddArc(ps[s], t, 1)
			n.AddArcTP(t, ps[(s+1)%stages], 1)
		}
	}
	return n
}

// reachSnapshot is a flattened exploration result for exact
// comparison: markings in MarkID order, edge rows, clip flags.
type reachSnapshot struct {
	markings  []Marking
	edges     [][]ReachEdge
	clipped   []bool
	truncated bool
}

func snapshotReach(r *ReachResult) reachSnapshot {
	s := reachSnapshot{edges: r.Edges, clipped: r.Clipped, truncated: r.Truncated}
	for id := range r.Len() {
		s.markings = append(s.markings, r.Store.Load(nil, MarkID(id)))
	}
	return s
}

// referenceExplore is the oracle the explorer is checked against, kept
// independent of the code under test: a map-keyed BFS (Marking.Key)
// that tests ECS.Enabled for the whole partition at every state and
// records edges in partition order, members ascending. It uses neither
// Drive, nor a FiringTable, nor a MarkingStore.
func referenceExplore(n *Net, opt ExploreOptions) reachSnapshot {
	if opt.MaxMarkings == 0 {
		opt.MaxMarkings = 10000
	}
	var r reachSnapshot
	ids := map[string]MarkID{}
	add := func(m Marking) MarkID {
		id := MarkID(len(r.markings))
		ids[m.Key()] = id
		r.markings = append(r.markings, m)
		r.edges = append(r.edges, nil)
		r.clipped = append(r.clipped, false)
		return id
	}
	add(n.InitialMarking())
	part := n.ECSPartition()
	for qi := 0; qi < len(r.markings); qi++ {
		m := r.markings[qi]
		for _, E := range part {
			if !opt.FireSources && E.IsSourceECS(n) || !E.Enabled(n, m) {
				continue
			}
			for _, tid := range E.Trans {
				next := m.Fire(n.Transitions[tid])
				clip := false
				for _, v := range next {
					clip = clip || opt.MaxTokensPerPlace > 0 && int(v) > opt.MaxTokensPerPlace
				}
				id, seen := ids[next.Key()]
				if !clip && !seen {
					if len(r.markings) >= opt.MaxMarkings {
						clip = true
					} else {
						id = add(next)
					}
				}
				if clip {
					r.truncated = true
					r.clipped[qi] = true
					continue
				}
				r.edges[qi] = append(r.edges[qi], ReachEdge{Trans: int32(tid), To: id})
			}
		}
	}
	return r
}

func assertSameSnapshot(t *testing.T, name string, want, got reachSnapshot) {
	t.Helper()
	if !reflect.DeepEqual(want.markings, got.markings) {
		t.Fatalf("%s: marking numbering differs (%d vs %d states)", name, len(want.markings), len(got.markings))
	}
	if !reflect.DeepEqual(want.edges, got.edges) {
		t.Fatalf("%s: edges differ", name)
	}
	if !reflect.DeepEqual(want.clipped, got.clipped) || want.truncated != got.truncated {
		t.Fatalf("%s: clip flags differ (truncated %v vs %v)", name, want.truncated, got.truncated)
	}
}

// assertStoredHashes: every stored hash equals the from-scratch
// HashMarking of its marking. The explorers derive a successor's hash
// from its parent's (FiringTable.Hash), and the dist coordinator relies
// on the stored values when it compares worker-shipped hashes with them.
func assertStoredHashes(t *testing.T, name string, r *ReachResult) {
	t.Helper()
	for id := range MarkID(r.Len()) {
		if got, want := r.Store.HashAt(id), HashMarking(r.MarkingAt(id)); got != want {
			t.Fatalf("%s: state %d stores hash %#x, HashMarking gives %#x", name, id, got, want)
		}
	}
}

// overCapRootNet starts over its cap: the initial marking holds 5
// tokens at place a, and move shifts b's token to c without touching a,
// so under a cap of 2 the root's move successor is still over the cap
// at a and must be vetoed, although move adds tokens only to c. drain
// takes a back within the cap, and from there move is admitted.
func overCapRootNet() *Net {
	n := New("over-cap-root")
	a := n.AddPlace("a", PlaceChannel, 5)
	b := n.AddPlace("b", PlaceInternal, 1)
	c := n.AddPlace("c", PlaceInternal, 0)
	d := n.AddPlace("d", PlaceChannel, 0)
	move := n.AddTransition("move", TransNormal)
	n.AddArc(b, move, 1)
	n.AddArcTP(move, c, 1)
	drain := n.AddTransition("drain", TransNormal)
	n.AddArc(a, drain, 3)
	n.AddArcTP(drain, d, 1)
	return n
}

// burstNet carries a count past 255 in the middle of an exploration:
// place p starts at init tokens, the source fill adds 3 and drain takes
// 2, while one token walks a ring of 4 places beside them. Under
// MaxTokensPerPlace 300, p takes every count from 0 to 300.
func burstNet(init int) *Net {
	n := New("burst")
	p := n.AddPlace("p", PlaceChannel, init)
	fill := n.AddTransition("fill", TransSourceCtl)
	n.AddArcTP(fill, p, 3)
	drain := n.AddTransition("drain", TransSink)
	n.AddArc(p, drain, 2)
	var ring []*Place
	for i := range 4 {
		ring = append(ring, n.AddPlace(fmt.Sprintf("r%d", i), PlaceInternal, max(0, 1-i)))
	}
	for i, r := range ring {
		step := n.AddTransition(fmt.Sprintf("step%d", i), TransNormal)
		n.AddArc(r, step, 1)
		n.AddArcTP(step, ring[(i+1)%len(ring)], 1)
	}
	return n
}

// TestExploreMatchesReference: Explore must reproduce the reference
// explorer exactly — same state numbering, same edges, same clip
// flags — on full explorations, budget-clipped ones and token-capped
// ones (one whose root starts over its cap). In burst-300 a count
// passes 255 in the middle of the
// exploration, so the store widens there; in burst-255 a cap vetoes
// every successor that would, and the store stays narrow. The wide
// cases exercise the driver's window of enabled sets: their net has 75
// ECSs, so a set is two words. wide-window explores all 15,625 states,
// and the window drops its expanded prefix 70 times. wide-budget stops
// interning at 300 states, in the middle of BFS level 11 (states 286 to
// 363), and then expands the rest of the window, dropping its prefix 12
// times in all, while every new successor is refused.
func TestExploreMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		net  *Net
		opt  ExploreOptions
		wide bool // the store ends wide
	}{
		{"rings-full", ringsNet(3, 4), ExploreOptions{MaxMarkings: 1000}, false},
		{"rings-budget", ringsNet(3, 5), ExploreOptions{MaxMarkings: 60}, false},
		{"simple-capped", simpleNet(t), ExploreOptions{FireSources: true, MaxTokensPerPlace: 4}, false},
		{"choice", choiceNet(t), ExploreOptions{FireSources: true, MaxTokensPerPlace: 3}, false},
		{"root-over-cap", overCapRootNet(), ExploreOptions{MaxTokensPerPlace: 2}, false},
		{"burst-300", burstNet(250), ExploreOptions{FireSources: true, MaxTokensPerPlace: 300}, true},
		{"burst-255", burstNet(250), ExploreOptions{FireSources: true, MaxTokensPerPlace: 255}, false},
		{"wide-window", ringsNet(3, 25), ExploreOptions{MaxMarkings: 20000}, false},
		{"wide-budget", ringsNet(3, 25), ExploreOptions{MaxMarkings: 300}, false},
	}
	for _, c := range cases {
		got := c.net.Explore(c.opt)
		assertSameSnapshot(t, c.name, referenceExplore(c.net, c.opt), snapshotReach(got))
		if got.Store.narrow == c.wide {
			t.Errorf("%s: store narrow = %v at the end", c.name, got.Store.narrow)
		}
	}
}

// TestExploreRandomNetsMatchReference sweeps seeded random nets
// (including source-driven infinite spaces under caps) against the
// reference explorer, and checks every stored hash against
// HashMarking.
func TestExploreRandomNetsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 120; i++ {
		n := randomNet(rng)
		opt := ExploreOptions{
			FireSources:       i%2 == 0,
			MaxTokensPerPlace: 3 + i%3,
			MaxMarkings:       200 + i%57,
		}
		name := fmt.Sprintf("random-%d", i)
		got := n.Explore(opt)
		assertSameSnapshot(t, name, referenceExplore(n, opt), snapshotReach(got))
		assertStoredHashes(t, name, got)
	}
}
