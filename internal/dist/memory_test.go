package dist_test

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/petri"
)

// The distributed memory gate: trimmed replicas exist to make
// per-worker memory scale ~1/N with the pool size, so CI asserts the
// ratio, not just the mechanism. All figures are exact live byte
// counts (petri.MarkingStore.Mem plus the enabled-set arena) — pure
// functions of the interned marking sequence, identical on every
// machine and Go toolchain that runs the same exploration — which is
// what allows a strict numeric gate instead of a noisy RSS heuristic.

// gateRatio is the CI bound: at 2 workers, each worker must hold at
// most 0.75x the replica bytes of a single worker holding the whole
// state space. The ideal split is ~0.5x; the slack covers hash
// imbalance and the fixed per-store probe-table floor.
const gateRatio = 0.75

// replicaBytes is the per-worker figure the gate compares: the marking
// store and the enabled-set arena — the two structures that grow with
// held states. The boundary-parent cache is bounded by construction
// and reported separately.
func replicaBytes(m dist.WorkerMem) int64 { return m.StoreBytes + m.BitsBytes }

// exploreWithPool runs one exploration over freshly spawned worker
// processes and returns the session stats.
func exploreWithPool(t *testing.T, n *petri.Net, procs int, opt petri.ExploreOptions) (*petri.ReachResult, dist.SessionStats) {
	t.Helper()
	pool, err := dist.SpawnLocal(procs)
	if err != nil {
		t.Fatalf("spawn %d workers: %v", procs, err)
	}
	defer pool.Close()
	r, err := n.ExploreDist(pool, opt)
	if err != nil {
		t.Fatalf("ExploreDist(%d procs): %v", procs, err)
	}
	return r, pool.LastSessionStats()
}

// TestDistTrimmedMemoryGate is the CI `dist-memory` step: on a
// product-space net big enough to dwarf fixed overheads (4^6 = 4096
// states), per-worker replica bytes at 2 workers must be <= gateRatio
// x the replica of one worker holding every state, and the two
// workers' stores must partition the state space instead of
// duplicating it. The reference is the 1-worker session minus its
// 4-byte-per-state global-id table: that worker owns every shard and
// interns every state in global-id order, so its store and enabled-set
// arena are exactly those of an untrimmed replica.
func TestDistTrimmedMemoryGate(t *testing.T) {
	net := productNet(6, 4)
	opt := petri.ExploreOptions{MaxMarkings: 5000}
	want := net.Explore(opt)

	one, oneStats := exploreWithPool(t, net, 1, opt)
	got, trimStats := exploreWithPool(t, net, 2, opt)
	assertSameReach(t, "1 worker vs serial", want, one)
	assertSameReach(t, "2 workers vs serial", want, got)
	single := oneStats.Workers[0]
	if single.States != want.Len() {
		t.Fatalf("the single worker holds %d states, want the whole space (%d)", single.States, want.Len())
	}
	ref := replicaBytes(single) - 4*int64(single.States)

	var trimMax int64
	held := 0
	for w, wm := range trimStats.Workers {
		tb := replicaBytes(wm)
		t.Logf("worker %d: %dB (%d states, %dB boundary cache)", w, tb, wm.States, wm.CacheBytes)
		if tb > trimMax {
			trimMax = tb
		}
		held += wm.States
	}
	if held != want.Len() {
		t.Errorf("trimmed workers hold %d states in total, space has %d", held, want.Len())
	}
	if limit := int64(float64(ref) * gateRatio); trimMax > limit {
		t.Errorf("trimmed per-worker replica %dB exceeds %.2fx the single-worker replica (%dB of %dB)",
			trimMax, gateRatio, limit, ref)
	}
	t.Logf("gate: trimmed max %dB vs single-worker replica %dB (%.2fx, bound %.2fx) over %d states",
		trimMax, ref, float64(trimMax)/float64(ref), gateRatio, want.Len())
}

// TestDistTrimmedMemoryScaling documents the ~1/N curve the tentpole
// claims: per-worker replica bytes at 1, 2 and 4 trimmed workers
// shrink with the pool, each step keeping the byte-identical result.
func TestDistTrimmedMemoryScaling(t *testing.T) {
	net := productNet(6, 4)
	opt := petri.ExploreOptions{MaxMarkings: 5000}
	want := net.Explore(opt)
	prevMax := int64(0)
	for _, procs := range []int{1, 2, 4} {
		got, st := exploreWithPool(t, net, procs, opt)
		assertSameReach(t, fmt.Sprintf("procs=%d", procs), want, got)
		var max int64
		for _, wm := range st.Workers {
			if b := replicaBytes(wm); b > max {
				max = b
			}
		}
		t.Logf("procs=%d: max per-worker replica %dB", procs, max)
		// Doubling the pool must shrink the biggest replica by a real
		// margin; 0.75 is loose against hash imbalance on 4096 states.
		if prevMax > 0 && float64(max) > 0.75*float64(prevMax) {
			t.Errorf("max replica %dB at %d workers is not <= 0.75x the previous pool's %dB", max, procs, prevMax)
		}
		prevMax = max
	}
}
