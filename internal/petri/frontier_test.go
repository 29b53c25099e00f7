package petri

import (
	"errors"
	"strings"
	"testing"
)

// dyingRunner stands in for a worker pool that fails mid-session: it
// merges one bogus rejection, which marks the attempt truncated, and
// then reports an infrastructure failure.
type dyingRunner struct{}

var errWorkerDied = errors.New("worker died")

func (dyingRunner) RunFrontier(ft *FiringTable, store *MarkingStore, spec ExpandSpec, hooks MergeHooks) (bool, error) {
	hooks.Reject(0, 0, false)
	return false, errWorkerDied
}

// TestExploreRunnerFallback: a runner failure surfaces as an error unless
// Strategy.Fallback is set; then the exploration reruns inline from a fresh
// store and hooks, and the result equals the in-process one.
func TestExploreRunnerFallback(t *testing.T) {
	n := ringsNet(3, 4)
	for _, freeze := range []bool{false, true} {
		opt := ExploreOptions{MaxMarkings: 1000, Strategy: Strategy{Freeze: freeze}}
		want := n.Explore(opt)
		if _, err := n.ExploreDist(dyingRunner{}, opt); !errors.Is(err, errWorkerDied) {
			t.Fatalf("freeze=%v: err = %v, want the runner's failure", freeze, err)
		}
		opt.Strategy.Fallback = true
		got, err := n.ExploreDist(dyingRunner{}, opt)
		if err != nil {
			t.Fatalf("freeze=%v: fallback returned %v", freeze, err)
		}
		assertSameReach(t, "fallback", want, got)
		if freeze && got.Store.FrozenLen() != got.Len() {
			t.Fatalf("fallback froze %d of %d states", got.Store.FrozenLen(), got.Len())
		}
	}
}

// TestExploreRejectsRunner: Explore has no error return to report a
// runner's failure with, so a Strategy carrying a Runner is a caller
// bug it refuses loudly instead of exploring inline behind the
// caller's back.
func TestExploreRejectsRunner(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Explore accepted a Strategy with a Runner")
		}
	}()
	ringsNet(2, 3).Explore(ExploreOptions{Strategy: Strategy{Runner: dyingRunner{}}})
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
		opt := ExploreOptions{Strategy: Strategy{Freeze: freeze}}
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
