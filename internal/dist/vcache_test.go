package dist

import (
	"testing"

	"repro/internal/petri"
)

// TestVecCacheLockstep drives a coordinator-side instance (hit) and a
// worker-side instance (insert on miss, get on hit) through the same
// id sequence with a capacity small enough to force evictions, and
// asserts the invariant the trimmed protocol rests on: whenever the
// coordinator omits a vector, the worker still holds it.
func TestVecCacheLockstep(t *testing.T) {
	coord := &vecCache{cap: 3, entries: map[petri.MarkID]*vecEntry{}}
	work := &vecCache{cap: 3, entries: map[petri.MarkID]*vecEntry{}}
	vec := func(id petri.MarkID) petri.Marking { return petri.Marking{int(id), 1} }
	// Repeats, interleavings and more distinct ids than capacity.
	seq := []petri.MarkID{1, 2, 1, 3, 4, 2, 4, 5, 6, 1, 6, 5, 5, 7, 8, 9, 7}
	for i, id := range seq {
		if coord.hit(id) {
			got, ok := work.get(id)
			if !ok {
				t.Fatalf("step %d: coordinator omitted vector for %d, worker does not hold it", i, id)
			}
			if !got.Equal(vec(id)) {
				t.Fatalf("step %d: worker holds %v for %d, want %v", i, got, id, vec(id))
			}
		} else {
			work.insert(id, vec(id))
		}
		if coord.len() != work.len() {
			t.Fatalf("step %d: cache sizes diverged (%d vs %d)", i, coord.len(), work.len())
		}
		if coord.len() > coord.cap {
			t.Fatalf("step %d: coordinator cache over capacity (%d > %d)", i, coord.len(), coord.cap)
		}
	}
}

// TestVecCacheEvictionOrder pins plain LRU semantics: at capacity the
// least recently touched id leaves first, and a recency bump protects
// an old entry.
func TestVecCacheEvictionOrder(t *testing.T) {
	c := &vecCache{cap: 2, entries: map[petri.MarkID]*vecEntry{}}
	c.hit(1) // miss, insert
	c.hit(2) // miss, insert
	c.hit(1) // hit, bump 1 over 2
	c.hit(3) // miss: evicts 2, the least recent
	if !c.hit(1) {
		t.Fatal("1 was bumped and must survive the eviction")
	}
	if c.hit(2) {
		t.Fatal("2 was least recent and must have been evicted")
	}
}

// TestExploreDistPipeTinyCache re-runs a boundary-heavy exploration
// with the shared cache capacity shrunk to 2, forcing constant
// eviction and re-shipping: results must stay byte-identical and no
// session may fail on a cache miss — the lockstep argument under
// adversarial pressure.
func TestExploreDistPipeTinyCache(t *testing.T) {
	old := vecCacheCap
	vecCacheCap = 2
	defer func() { vecCacheCap = old }()
	n := ringNet(3, 4)
	opt := petri.ExploreOptions{MaxMarkings: 1000}
	want := n.Explore(opt)
	for _, workers := range []int{2, 4} {
		p := pipePool(t, workers)
		got, err := n.ExploreDist(p, opt)
		if err != nil {
			t.Fatalf("ExploreDist(%d workers, cap 2): %v", workers, err)
		}
		requireSameReach(t, "tiny cache", want, got)
	}
}
