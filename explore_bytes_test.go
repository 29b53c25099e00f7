package repro

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/petri"
)

// TestExploreLargeBytes bounds what serial reachability of the
// 161,051-state ExploreLarge net allocates: at most 2.55x the exact hot
// bytes of the store it builds (about 30.6 MB for the 12.0 MB store of
// one-byte counts; it allocates 28.7 MB, 2.40x). The token pages hold
// each marking once, the hash array grows with the probe table and the
// edge rows are carved out of chunked arenas. The driver keeps
// enabled-ECS sets only for the states it has not yet expanded, and the
// explorer's one table per state, a 4-byte row record, grows by
// petri.Push's doubling rule; the Edges headers and Clipped flags are
// laid out once, at one entry per state, when the exploration ends. The
// bound fails if either older layout comes back: Edges headers and
// Clipped flags grown by Push through the exploration (2.98x), or an
// enabled-set arena that keeps every state's set (2.70x).
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
	if float64(alloc) > 2.55*float64(hot) {
		t.Fatalf("serial Explore allocated %dB, more than 2.55x the store's %d hot bytes", alloc, hot)
	}
}

// TestPFCSearchBytes bounds what one cold synthesis of the paper's PFC
// system allocates: at most 5.0x the exact hot bytes of the store its
// 23,984-state schedule search builds (about 6.53 MB for the 1.31 MB
// store of one-byte counts; it allocates 6.23 MB, 4.77x, and 4.79x
// under -race). The search is nearly all of the synthesis, and the
// graph engine's two growing tables, its states and its adjacency, grow
// by petri.Push's doubling rule. The bound fails if either falls back
// to append's ~1.25x growth, which allocates about five times a table's
// final capacity: the synthesis then allocates 5.82x (adjacency) or
// 5.08x (states, 12 bytes a state).
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
	if float64(alloc) > 5.0*float64(st.StoreHotBytes) {
		t.Fatalf("cold PFC synthesis allocated %dB, more than 5.0x the search store's %d hot bytes", alloc, st.StoreHotBytes)
	}
}
