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

func (dyingRunner) RunFrontier(n *Net, store *MarkingStore, spec ExpandSpec, hooks MergeHooks) (bool, error) {
	hooks.Reject(0, 0, false)
	return false, errWorkerDied
}

// TestExploreDistFallback: a runner failure surfaces as an error unless
// DistFallback is set; then the exploration reruns inline from a fresh
// store and hooks, and the result equals the in-process one.
func TestExploreDistFallback(t *testing.T) {
	n := ringsNet(3, 4)
	for _, freeze := range []bool{false, true} {
		opt := ExploreOptions{MaxMarkings: 1000, FreezeLevels: freeze}
		want := n.Explore(opt)
		if _, err := n.ExploreDist(dyingRunner{}, opt); !errors.Is(err, errWorkerDied) {
			t.Fatalf("freeze=%v: err = %v, want the runner's failure", freeze, err)
		}
		opt.DistFallback = true
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
