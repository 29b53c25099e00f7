package repro

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/petri"
)

// TestExploreLargeBytes bounds what serial reachability of the
// 161,051-state ExploreLarge net allocates: at most 122 bytes per state
// (about 19.6 MB; it allocates 18.4 MB, 114.4 B a state). The bound is
// per state, not a multiple of the store's hot bytes, because the
// net's P-semiflows bound each of its 60 places at one token, so a
// state is an 8-byte row, one word, and the store (2.3 MB hot: the
// words and the probe table, no hashes) is no longer the largest table.
// The key array grows with the probe table and the edge rows are carved
// out of chunked arenas. The driver keeps enabled-ECS sets only for the
// states it has not yet expanded, and the explorer's one table per
// state, a 4-byte row record, grows by petri.Push's doubling rule; the
// Edges headers and Clipped flags are laid out once, at one entry per
// state, when the exploration ends. The bound fails if any older layout
// comes back: Edges headers and Clipped flags grown by Push through the
// exploration (170.8 B a state), an enabled-set arena that keeps every
// state's set (137.2 B), a one-word store that also keeps a hash per
// state (134.0 B), or one byte per place, as before the semiflow bounds
// (178.5 B).
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
	perState := float64(alloc) / float64(r.Len())
	t.Logf("serial Explore allocated %dB for %d states (%.1f B a state; store %dB hot), %d objects",
		alloc, r.Len(), perState, r.Store.Mem().HotBytes, after.Mallocs-before.Mallocs)
	if perState > 122 {
		t.Fatalf("serial Explore allocated %dB, %.1f B for each of %d states, more than 122", alloc, perState, r.Len())
	}
}

// TestPFCSearchBytes bounds what one cold synthesis of the paper's PFC
// system allocates: at most 124 bytes per state its schedule search
// interns (about 2.97 MB for the 23,984 states; it allocates 2.81 MB,
// 117.0 B a state). The bound is per state, not a multiple of the
// store's hot bytes, because the store's packed rows (5 bytes for
// PFC's 41 places, kept as one word with no hash) made it the smallest
// table of the search. The search is nearly all of the synthesis. Its
// state table grows by petri.Push's doubling rule, its adjacency lives
// in pages that are never copied, and its reverse index holds one
// source per stored successor and no group. The bound fails if any
// older layout comes back: the adjacency in one table grown by Push
// (141.5 B a state), a per-edge group table beside the reverse index's
// sources (134.4 B), a one-word store that also keeps a hash per state
// (133.4 B), or the state table grown by append's ~1.25x rule (131.9 B).
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
	perState := float64(alloc) / float64(st.DistinctMarkings)
	t.Logf("cold PFC synthesis allocated %dB for %d states (%.1f B a state; store %dB hot), %d objects",
		alloc, st.DistinctMarkings, perState, st.StoreHotBytes, after.Mallocs-before.Mallocs)
	if perState > 124 {
		t.Fatalf("cold PFC synthesis allocated %dB, %.1f B for each of %d states, more than 124", alloc, perState, st.DistinctMarkings)
	}
}
