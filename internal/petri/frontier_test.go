package petri

import (
	"errors"
	"strings"
	"testing"
)

// dyingRunner stands in for a worker pool that fails mid-session: it
// merges one bogus rejection, which marks the exploration truncated,
// and then reports an infrastructure failure. It records whether the
// store it was handed freezes.
type dyingRunner struct{ froze *bool }

var errWorkerDied = errors.New("worker died")

func (r dyingRunner) RunFrontier(ft *FiringTable, store *MarkingStore, spec ExpandSpec, hooks MergeHooks) (bool, error) {
	*r.froze = store.FreezeEnabled()
	hooks.Reject(0, 0, false)
	return false, errWorkerDied
}

// TestExploreRunnerFallback: there is no inline fallback. A runner's
// failure is ExploreDist's error and no result comes back, frozen or
// all-hot; the runner is handed a store that freezes exactly when
// Freeze is set.
func TestExploreRunnerFallback(t *testing.T) {
	n := ringsNet(3, 4)
	for _, freeze := range []bool{false, true} {
		var froze bool
		r, err := n.ExploreDist(dyingRunner{&froze}, ExploreOptions{MaxMarkings: 1000, Freeze: freeze})
		if !errors.Is(err, errWorkerDied) || r != nil {
			t.Fatalf("freeze=%v: got %v, %v; want no result and the runner's failure", freeze, r, err)
		}
		if froze != freeze {
			t.Fatalf("freeze=%v: the runner's store froze: %v", freeze, froze)
		}
	}
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
// with an error wrapping ErrTokenOverflow that names the place, all-hot
// and frozen; Explore panics with it. A cap vetoes such a successor
// instead, even when its count wrapped.
func TestExploreTokenOverflow(t *testing.T) {
	for _, freeze := range []bool{false, true} {
		opt := ExploreOptions{Freeze: freeze}
		r, err := overflowNet(1, 1).ExploreDist(nil, opt)
		if err != nil {
			t.Fatalf("freeze=%v: one firing to MaxTokens: %v", freeze, err)
		}
		if r.Len() != 4 || r.Truncated {
			t.Fatalf("freeze=%v: one firing to MaxTokens: %d states (truncated %v), want 4", freeze, r.Len(), r.Truncated)
		}
		if got := r.MarkingAt(3); got[1] != MaxTokens || got[3] != 4 {
			t.Fatalf("freeze=%v: last marking %v, want p at %d", freeze, got, MaxTokens)
		}
		for _, c := range []struct {
			fuel, w int
			place   string
		}{{2, 1, "p"}, {1, MaxTokens, "q"}} {
			r, err = overflowNet(c.fuel, c.w).ExploreDist(nil, opt)
			if !errors.Is(err, ErrTokenOverflow) || !strings.Contains(err.Error(), "place "+c.place+":") || r != nil {
				t.Fatalf("freeze=%v fuel=%d w=%d: got %v, %v; want ErrTokenOverflow at %s", freeze, c.fuel, c.w, r, err, c.place)
			}
		}
		// Capped at MaxTokens, p vetoes its second firing; capped at
		// MaxTokens-1, q vetoes 3+MaxTokens, a count that wrapped.
		for _, c := range []struct{ fuel, w, limit, states int }{{2, 1, MaxTokens, 4}, {1, MaxTokens, MaxTokens - 1, 1}} {
			opt.MaxTokensPerPlace = c.limit
			r, err = overflowNet(c.fuel, c.w).ExploreDist(nil, opt)
			if err != nil {
				t.Fatalf("freeze=%v cap %d: %v, want a veto", freeze, c.limit, err)
			}
			if !r.Truncated || r.Len() != c.states {
				t.Fatalf("freeze=%v cap %d: %d states (truncated %v), want %d and a veto", freeze, c.limit, r.Len(), r.Truncated, c.states)
			}
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
