package petri

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// dyingRunner stands in for a worker pool that fails mid-session: it
// begins the root and merges one bogus rejection, which marks the
// exploration truncated, and then reports an infrastructure failure.
type dyingRunner struct{}

var errWorkerDied = errors.New("worker died")

func (dyingRunner) RunFrontier(ft *FiringTable, store *MarkingStore, spec ExpandSpec, hooks MergeHooks) (bool, error) {
	hooks.BeginState(0)
	hooks.Reject(0, 0, false)
	return false, errWorkerDied
}

// TestExploreRunnerFallback: there is no inline fallback. A runner's
// failure is ExploreDist's error and no result comes back.
func TestExploreRunnerFallback(t *testing.T) {
	r, err := ringsNet(3, 4).ExploreDist(dyingRunner{}, ExploreOptions{MaxMarkings: 1000})
	if !errors.Is(err, errWorkerDied) || r != nil {
		t.Fatalf("got %v, %v; want no result and the runner's failure", r, err)
	}
}

// TestExploreValidates: a net that Net.Validate rejects is not
// explored. Place a starts at -1 and no transition touches it, while
// t moves b's 3 tokens to c one at a time, so 4 markings would be
// reachable: ExploreDist returns the validation error, which names a,
// with or without a cap, and Explore panics with it.
func TestExploreValidates(t *testing.T) {
	n := New("negative-initial")
	n.AddPlace("a", PlaceInternal, -1)
	b := n.AddPlace("b", PlaceInternal, 3)
	c := n.AddPlace("c", PlaceInternal, 0)
	tr := n.AddTransition("t", TransNormal)
	n.AddArc(b, tr, 1)
	n.AddArcTP(tr, c, 1)
	for _, limit := range []int{0, 5} {
		r, err := n.ExploreDist(nil, ExploreOptions{MaxTokensPerPlace: limit})
		if err == nil || !strings.Contains(err.Error(), "place a:") || r != nil {
			t.Fatalf("cap %d: got %v, %v; want no result and an error naming place a", limit, r, err)
		}
	}
	defer func() {
		if err, _ := recover().(error); err == nil || !strings.Contains(err.Error(), "place a:") {
			t.Fatalf("Explore recovered %v, want the error naming place a", err)
		}
	}()
	n.Explore(ExploreOptions{})
	t.Fatal("Explore returned on an invalid net")
}

// overflowNet feeds place p, which starts at MaxTokens-1, one token
// per firing of t, fuel times; a second transition u adds w tokens to a
// place q holding 3, once.
func overflowNet(fuel, w int) *Net {
	n := New("overflow")
	f := n.AddPlace("fuel", PlaceInternal, fuel)
	p := n.AddPlace("p", PlaceChannel, MaxTokens-1)
	t := n.AddTransition("t", TransNormal)
	n.AddArc(f, t, 1)
	n.AddArcTP(t, p, 1)
	g := n.AddPlace("gate", PlaceInternal, 1)
	q := n.AddPlace("q", PlaceChannel, 3)
	u := n.AddTransition("u", TransNormal)
	n.AddArc(g, u, 1)
	n.AddArcTP(u, q, w)
	return n
}

// TestExploreTokenOverflow: a count may reach MaxTokens, and the firing
// that would carry a place no cap bounds past it ends the exploration
// with an error wrapping ErrTokenOverflow that names the place; Explore
// panics with it. A cap vetoes such a successor instead, even when its
// count wrapped.
func TestExploreTokenOverflow(t *testing.T) {
	r, err := overflowNet(1, 1).ExploreDist(nil, ExploreOptions{})
	if err != nil {
		t.Fatalf("one firing to MaxTokens: %v", err)
	}
	if r.Len() != 4 || r.Truncated {
		t.Fatalf("one firing to MaxTokens: %d states (truncated %v), want 4", r.Len(), r.Truncated)
	}
	if got := r.Store.At(3); got[1] != MaxTokens || got[3] != 4 {
		t.Fatalf("last marking %v, want p at %d", got, MaxTokens)
	}
	for _, c := range []struct {
		fuel, w int
		place   string
	}{{2, 1, "p"}, {1, MaxTokens, "q"}} {
		r, err = overflowNet(c.fuel, c.w).ExploreDist(nil, ExploreOptions{})
		if !errors.Is(err, ErrTokenOverflow) || !strings.Contains(err.Error(), "place "+c.place+":") || r != nil {
			t.Fatalf("fuel=%d w=%d: got %v, %v; want ErrTokenOverflow at %s", c.fuel, c.w, r, err, c.place)
		}
	}
	// Capped at MaxTokens, p vetoes its second firing; capped at
	// MaxTokens-1, q vetoes 3+MaxTokens, a count that wrapped.
	for _, c := range []struct{ fuel, w, limit, states int }{{2, 1, MaxTokens, 4}, {1, MaxTokens, MaxTokens - 1, 1}} {
		r, err = overflowNet(c.fuel, c.w).ExploreDist(nil, ExploreOptions{MaxTokensPerPlace: c.limit})
		if err != nil {
			t.Fatalf("cap %d: %v, want a veto", c.limit, err)
		}
		if !r.Truncated || r.Len() != c.states {
			t.Fatalf("cap %d: %d states (truncated %v), want %d and a veto", c.limit, r.Len(), r.Truncated, c.states)
		}
	}
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, ErrTokenOverflow) {
			t.Fatalf("Explore recovered %v, want ErrTokenOverflow", err)
		}
	}()
	overflowNet(2, 1).Explore(ExploreOptions{})
	t.Fatal("Explore returned past an overflow")
}

// mixedCapsNet is a net for a spec whose caps lay out fields of every
// kind, listed with each place's cap and field width. gate (cap 1, 1
// bit) and a (cap 1, 1 bit) swap one token. z (cap 0, no bits) is fed
// by toZ, which every state vetoes. b (cap 3, 2 bits) is filled one
// token at a time by the source fillB, and moveBC takes 2 from it to
// put 3 into c (cap 7, 3 bits). drainC moves one token from c to u,
// which has no cap, burning one of fuel's 5 tokens (cap 7, 3 bits), so
// u ends at uInit+5. The source fillB feeds u through b and c, but
// the P-semiflow u + fuel bounds it at uInit+5 all the same: 3 bits at
// uInit 0, and a whole byte at 252, which u's count passes. o (cap 1,
// 2 bits) starts at 3, over its cap, so every successor of the root but
// drainO's, which takes 2 from it, is vetoed; feedO, enabled beside
// flip and toZ, would then raise o to 2, which its field holds and its
// cap vetoes. A second source, fillC, is outside the spec's mask.
func mixedCapsNet(uInit int) (*Net, ExpandSpec) {
	n := New("mixed-caps")
	gate := n.AddPlace("gate", PlaceInternal, 1)
	a := n.AddPlace("a", PlaceInternal, 0)
	z := n.AddPlace("z", PlaceChannel, 0)
	b := n.AddPlace("b", PlaceChannel, 0)
	c := n.AddPlace("c", PlaceChannel, 0)
	u := n.AddPlace("u", PlaceChannel, uInit)
	o := n.AddPlace("o", PlaceChannel, 3)
	fuel := n.AddPlace("fuel", PlaceInternal, 5)
	caps := []int{1, 1, 0, 3, 7, -1, 1, 7}
	flip := n.AddTransition("flip", TransNormal)
	n.AddArc(gate, flip, 1)
	n.AddArcTP(flip, a, 1)
	toZ := n.AddTransition("toZ", TransNormal)
	n.AddSelfLoop(gate, toZ, 1)
	n.AddArcTP(toZ, z, 1)
	feedO := n.AddTransition("feedO", TransNormal)
	n.AddSelfLoop(gate, feedO, 1)
	n.AddArcTP(feedO, o, 1)
	flop := n.AddTransition("flop", TransNormal)
	n.AddArc(a, flop, 1)
	n.AddArcTP(flop, gate, 1)
	fillB := n.AddTransition("fillB", TransSourceCtl)
	n.AddArcTP(fillB, b, 1)
	fillC := n.AddTransition("fillC", TransSourceCtl)
	n.AddArcTP(fillC, c, 1)
	moveBC := n.AddTransition("moveBC", TransNormal)
	n.AddArc(b, moveBC, 2)
	n.AddArcTP(moveBC, c, 3)
	drainC := n.AddTransition("drainC", TransNormal)
	n.AddArc(c, drainC, 1)
	n.AddArc(fuel, drainC, 1)
	n.AddArcTP(drainC, u, 1)
	drainO := n.AddTransition("drainO", TransNormal)
	n.AddArc(o, drainO, 2)
	part := n.ECSPartition()
	spec := ExpandSpec{Mask: make([]uint64, (len(part)+63)/64), Caps: caps}
	for _, e := range part {
		if e.Trans[0] != fillC.ID {
			spec.Mask[e.Index>>6] |= 1 << (uint(e.Index) & 63)
		}
	}
	return n, spec
}

// wholeCapsNet is a net whose row gives every place a whole byte
// although one cap is small: p starts at 200 over its cap of 2, so its
// field must hold 200, and q and fuel have no cap, and the P-semiflow
// q + fuel bounds each at fuel's 128 initial tokens. drain takes p to
// 2; the source fill, which the root's cap vetoes, then raises p to 3,
// which its byte holds and its cap vetoes; take moves one of p's
// tokens to q while fuel's tokens last.
func wholeCapsNet() (*Net, ExpandSpec) {
	n := New("whole-caps")
	p := n.AddPlace("p", PlaceChannel, 200)
	q := n.AddPlace("q", PlaceChannel, 0)
	fuel := n.AddPlace("fuel", PlaceInternal, 128)
	drain := n.AddTransition("drain", TransNormal)
	n.AddArc(p, drain, 198)
	fill := n.AddTransition("fill", TransSourceCtl)
	n.AddArcTP(fill, p, 1)
	take := n.AddTransition("take", TransNormal)
	n.AddArc(p, take, 1)
	n.AddArc(fuel, take, 1)
	n.AddArcTP(take, q, 1)
	spec := ExpandSpec{Mask: []uint64{1<<len(n.ECSPartition()) - 1}, Caps: []int{2, -1, -1}}
	return n, spec
}

// referenceDrive is the oracle of TestDriveMixedCaps, kept independent
// of the code under test: a map-keyed BFS (Marking.Key) under spec that
// tests ECS.Enabled for the whole partition at every state and checks
// every place of every successor against its cap. It admits at most
// maxStates states and returns the hook calls Drive must make, in
// order, and the markings in MarkID order.
func referenceDrive(n *Net, spec ExpandSpec, maxStates int) ([]string, []Marking) {
	var events []string
	markings := []Marking{n.InitialMarking()}
	ids := map[string]MarkID{markings[0].Key(): 0}
	for qi := 0; qi < len(markings); qi++ {
		m := markings[qi]
		events = append(events, fmt.Sprintf("begin %d", qi))
		for _, e := range n.ECSPartition() {
			if spec.Mask[e.Index>>6]&(1<<(uint(e.Index)&63)) == 0 || !e.Enabled(n, m) {
				continue
			}
			for _, tid := range e.Trans {
				next := m.Fire(n.Transitions[tid])
				veto := false
				for p, v := range next {
					veto = veto || spec.Caps[p] >= 0 && int(v) > spec.Caps[p]
				}
				id, seen := ids[next.Key()]
				switch {
				case veto:
					events = append(events, fmt.Sprintf("reject %d %d budget=false", qi, tid))
				case seen:
					events = append(events, fmt.Sprintf("edge %d %d %d new=false", qi, tid, id))
				case len(markings) == maxStates:
					events = append(events, fmt.Sprintf("reject %d %d budget=true", qi, tid))
				default:
					id = MarkID(len(markings))
					ids[next.Key()] = id
					markings = append(markings, next)
					events = append(events, fmt.Sprintf("edge %d %d %d new=true", qi, tid, id))
				}
			}
		}
	}
	return events, markings
}

// TestDriveMixedCaps: Drive under a spec whose caps mix 0, 1, 3, 7 and
// unbounded, with a root over one cap, makes the same hook calls, in the
// same order, as the reference BFS, and its store holds the same
// markings. The store lays its rows out from the caps, the semiflow
// bound of the uncapped u and the root: mixedCapsNet's eight places fit
// in 2 bytes. In "widens", u's bound passes 255, so u takes a whole
// byte, the rows 3, and the store widens from packed rows in the middle
// of the exploration when u passes 255; in "budget", Admit refuses every
// state past the 40th. In "whole", every field is a whole byte, and a
// cap of 2 still vetoes what its byte would hold.
func TestDriveMixedCaps(t *testing.T) {
	mixed := func(uInit int) func() (*Net, ExpandSpec) {
		return func() (*Net, ExpandSpec) { return mixedCapsNet(uInit) }
	}
	for _, c := range []struct {
		name      string
		net       func() (*Net, ExpandSpec)
		maxStates int
		rowBytes  int
		whole     bool // every field is a whole byte
		wide      bool // the store ends wide
	}{
		{"narrow", mixed(0), 1 << 20, 2, false, false},
		{"widens", mixed(252), 1 << 20, 3, false, true},
		{"budget", mixed(0), 40, 2, false, false},
		{"whole", wholeCapsNet, 1 << 20, 3, true, false},
	} {
		n, spec := c.net()
		wantEvents, wantMarkings := referenceDrive(n, spec, c.maxStates)
		var events []string
		var store *MarkingStore
		ok, err := Drive(NewFiringTable(n, n.ECSPartition()), spec, nil, func(s *MarkingStore) MergeHooks {
			store = s
			whole := true
			for _, f := range s.fields {
				whole = whole && f.max == math.MaxUint8
			}
			if !s.narrow || s.rowBytes != c.rowBytes || whole != c.whole {
				t.Fatalf("%s: rows of %d bytes (narrow %v, whole %v), want %d", c.name, s.rowBytes, s.narrow, whole, c.rowBytes)
			}
			return MergeHooks{
				BeginState: func(id MarkID) { events = append(events, fmt.Sprintf("begin %d", id)) },
				Admit:      func() bool { return s.Len() < c.maxStates },
				Edge: func(parent MarkID, trans int32, child MarkID, isNew bool) {
					events = append(events, fmt.Sprintf("edge %d %d %d new=%v", parent, trans, child, isNew))
				},
				Reject: func(parent MarkID, trans int32, budget bool) bool {
					events = append(events, fmt.Sprintf("reject %d %d budget=%v", parent, trans, budget))
					return true
				},
			}
		})
		if !ok || err != nil {
			t.Fatalf("%s: Drive = %v, %v", c.name, ok, err)
		}
		if store.Len() != len(wantMarkings) {
			t.Fatalf("%s: %d states, want %d", c.name, store.Len(), len(wantMarkings))
		}
		for id, want := range wantMarkings {
			if got := store.Load(nil, MarkID(id)); !got.Equal(want) {
				t.Fatalf("%s: state %d is %v, want %v", c.name, id, got, want)
			}
		}
		if !reflect.DeepEqual(events, wantEvents) {
			for i := range min(len(events), len(wantEvents)) {
				if events[i] != wantEvents[i] {
					t.Fatalf("%s: hook call %d is %q, want %q", c.name, i, events[i], wantEvents[i])
				}
			}
			t.Fatalf("%s: %d hook calls, want %d", c.name, len(events), len(wantEvents))
		}
		if store.narrow == c.wide {
			t.Errorf("%s: store narrow = %v at the end", c.name, store.narrow)
		}
		t.Logf("%s: %d states, %d hook calls", c.name, store.Len(), len(events))
	}
}
