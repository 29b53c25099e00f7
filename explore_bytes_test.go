package repro

import (
	"runtime"
	"testing"

	"repro/internal/petri"
)

// TestExploreLargeBytes bounds what serial reachability of the
// 161,051-state ExploreLarge net allocates: at most 2x the exact hot
// bytes of the store it builds. The token pages hold each marking
// once, the hash array grows with the probe table and the edge rows are
// carved out of chunked arenas, so the store itself is most of what
// the exploration allocates.
func TestExploreLargeBytes(t *testing.T) {
	const pipes, stages = 5, 11
	want := 1
	for i := 0; i < pipes; i++ {
		want *= stages
	}
	n := exploreLargeNet(pipes, stages)
	n.Warm()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := n.Explore(petri.ExploreOptions{MaxMarkings: want + 1})
	runtime.ReadMemStats(&after)
	if r.Len() != want || r.Truncated {
		t.Fatalf("explored %d markings (truncated=%v), want %d", r.Len(), r.Truncated, want)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	hot := r.Store.Mem().HotBytes
	t.Logf("serial Explore allocated %dB for %dB hot (%.2fx), %d objects for %d states",
		alloc, hot, float64(alloc)/float64(hot), after.Mallocs-before.Mallocs, r.Len())
	if float64(alloc) > 2*float64(hot) {
		t.Fatalf("serial Explore allocated %dB, more than 2x the store's %d hot bytes", alloc, hot)
	}
}
