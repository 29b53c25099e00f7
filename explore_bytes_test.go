package repro

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/petri"
)

// TestExploreLargeBytes bounds what serial reachability of the
// 161,051-state ExploreLarge net allocates: at most 3.5x the exact hot
// bytes of the store it builds (about 42.0 MB for the 12.0 MB store of
// one-byte counts; it allocates 39.4 MB). The token pages hold each
// marking once, the hash array grows with the probe table, the edge
// rows are carved out of chunked arenas and the per-state tables (the
// enabled-bit arena, the Edges headers, the Clipped flags) grow by
// the doubling rule of petri.Push and petri.Extend, so the store itself
// is most of what the exploration allocates.
func TestExploreLargeBytes(t *testing.T) {
	const pipes, stages = 5, 11
	want := 1
	for i := 0; i < pipes; i++ {
		want *= stages
	}
	n := exploreLargeNet(pipes, stages)
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
	if float64(alloc) > 3.5*float64(hot) {
		t.Fatalf("serial Explore allocated %dB, more than 3.5x the store's %d hot bytes", alloc, hot)
	}
}

// TestPFCSearchBytes bounds what one cold synthesis of the paper's PFC
// system allocates: at most 5.6x the exact hot bytes of the store its
// 23,984-state schedule search builds (about 7.32 MB for the 1.31 MB
// store of one-byte counts; it allocates 6.69 MB). The search is
// nearly all of the synthesis, and the graph engine's two growing
// tables, its states and its adjacency, grow by petri.Push's doubling
// rule. The bound fails if the adjacency falls back to append's ~1.25x
// growth, which allocates about five times a table's final capacity
// (the synthesis then allocates 7.5x); the states table, 12 bytes a
// state, is too small for its growth rule to show here (5.4x).
func TestPFCSearchBytes(t *testing.T) {
	if _, err := core.Synthesize(apps.PFC, apps.PFCSpec, nil); err != nil {
		t.Fatal(err) // warm-up: one-time set-up stays out of the count
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := core.Synthesize(apps.PFC, apps.PFCSpec, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedules) != 1 {
		t.Fatalf("PFC synthesized %d schedules, want 1", len(res.Schedules))
	}
	st := res.Schedules[0].Stats
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("cold PFC synthesis allocated %dB for %dB hot (%.2fx), %d objects for %d states",
		alloc, st.StoreHotBytes, float64(alloc)/float64(st.StoreHotBytes), after.Mallocs-before.Mallocs, st.NodesCreated)
	if float64(alloc) > 5.6*float64(st.StoreHotBytes) {
		t.Fatalf("cold PFC synthesis allocated %dB, more than 5.6x the search store's %d hot bytes", alloc, st.StoreHotBytes)
	}
}
