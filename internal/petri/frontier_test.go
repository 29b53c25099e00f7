package petri

import (
	"errors"
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
