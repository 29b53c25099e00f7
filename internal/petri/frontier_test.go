package petri

import (
	"errors"
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
	if got := r.MarkingAt(3); got[1] != MaxTokens || got[3] != 4 {
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
