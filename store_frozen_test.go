package repro

import (
	"testing"

	"repro/internal/petri"
)

// TestStoreFrozenGate is the CI gate for the frozen store tier on the
// full 161k-state ExploreLarge net (11^5 markings, 60 places: five
// rings of 11 places and five fuel places): the
// frozen exploration must be byte-identical to the all-hot serial
// baseline, every state must end up frozen, and the hot residency must
// obey exact, machine-independent byte counts — the frozen run keeps
// only hashes, the probe table and segment offsets hot, and that total
// must come in at or below 0.35x the all-hot store.
func TestStoreFrozenGate(t *testing.T) {
	const pipes, stages = 5, 11
	want := 1
	for i := 0; i < pipes; i++ {
		want *= stages
	}
	opt := petri.ExploreOptions{MaxMarkings: want + 1}
	n := exploreLargeNet(pipes, stages)
	hot := n.Explore(opt)
	if hot.Len() != want || hot.Truncated {
		t.Fatalf("all-hot explored %d markings (truncated=%v), want %d", hot.Len(), hot.Truncated, want)
	}

	fopt := opt
	fopt.Freeze = true
	frozen := n.Explore(fopt)
	if frozen.Len() != want || frozen.Truncated {
		t.Fatalf("frozen explored %d markings (truncated=%v), want %d", frozen.Len(), frozen.Truncated, want)
	}

	// Byte-identical reachability: same markings in the same dense
	// order, same edges, same clip flags.
	for id := 0; id < want; id++ {
		if !hot.MarkingAt(petri.MarkID(id)).Equal(frozen.MarkingAt(petri.MarkID(id))) {
			t.Fatalf("marking %d differs between all-hot and frozen", id)
		}
		if hot.Clipped[id] != frozen.Clipped[id] {
			t.Fatalf("clipped[%d] differs between all-hot and frozen", id)
		}
		he, fe := hot.Edges[id], frozen.Edges[id]
		if len(he) != len(fe) {
			t.Fatalf("state %d: edge counts differ (%d vs %d)", id, len(he), len(fe))
		}
		for k := range he {
			if he[k] != fe[k] {
				t.Fatalf("state %d edge %d differs", id, k)
			}
		}
	}

	// The serial explorer freezes every closed level and then the final
	// partial level, so the whole store must be frozen.
	if !frozen.Store.FreezeEnabled() {
		t.Fatal("the Freeze run did not enable the frozen tier")
	}
	if fl := frozen.Store.FrozenLen(); fl != want {
		t.Fatalf("frozen states = %d, want all %d", fl, want)
	}

	// Exact machine-independent hot-byte accounting. Both runs intern
	// the identical marking sequence, so they share one probe-table
	// size; the all-hot store additionally holds every token vector
	// (want x places x countBytes), the frozen store instead holds one
	// segment offset per state (want x 8B) and zero hot vectors. An
	// inline exploration's store holds one byte per count while no
	// count passes 255, and every count of this net is 0 or 1.
	const countBytes = 1
	hotMem := hot.Store.Mem()
	frozenMem := frozen.Store.Mem()
	if hotMem.FrozenBytes != 0 {
		t.Fatalf("all-hot run reports %d frozen bytes", hotMem.FrozenBytes)
	}
	places := len(hot.MarkingAt(0))
	tableBytes := hotMem.HotBytes - int64(want*places)*countBytes - int64(want)*8
	if tableBytes <= 0 {
		t.Fatalf("derived probe-table bytes %d; accounting drifted (hot=%d)", tableBytes, hotMem.HotBytes)
	}
	wantFrozenHot := int64(want)*8 + tableBytes + int64(want)*8
	if frozenMem.HotBytes != wantFrozenHot {
		t.Fatalf("frozen run hot bytes = %d, want exactly %d (hashes+table+offsets)", frozenMem.HotBytes, wantFrozenHot)
	}
	if frozenMem.FrozenBytes <= 0 {
		t.Fatalf("frozen run reports %d segment bytes", frozenMem.FrozenBytes)
	}

	// The headline gate: hot residency at or below 0.35x the all-hot
	// store (it reads 0.302x: one-byte vectors no longer dominate it).
	if frozenMem.HotBytes*100 > hotMem.HotBytes*35 {
		t.Fatalf("frozen hot bytes %d > 0.35x all-hot %d", frozenMem.HotBytes, hotMem.HotBytes)
	}
	t.Logf("all-hot %dB, frozen hot %dB (%.3fx) + %dB on disk",
		hotMem.HotBytes, frozenMem.HotBytes,
		float64(frozenMem.HotBytes)/float64(hotMem.HotBytes), frozenMem.FrozenBytes)
}
