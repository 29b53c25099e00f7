package core

import (
	"testing"
	"time"

	"repro/internal/sched"
)

// TestCacheHit: synthesizing the same sources twice returns the
// memoized Result on the second call.
func TestCacheHit(t *testing.T) {
	ResetCache()
	defer ResetCache()
	flowcSrc, specSrc := manyTaskApp(2)
	r1, err := Synthesize(flowcSrc, specSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Synthesize(flowcSrc, specSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("second synthesis should return the cached Result")
	}
	st := Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

// TestCacheKey: semantically different inputs and options must map to
// different entries; Workers must not be part of the key.
func TestCacheKey(t *testing.T) {
	ResetCache()
	defer ResetCache()
	flowcSrc, specSrc := manyTaskApp(2)
	r1, err := Synthesize(flowcSrc, specSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The state budget changes the key.
	r2, err := Synthesize(flowcSrc, specSrc, &Options{Sched: &sched.Options{MaxNodes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Error("Sched.MaxNodes must not share a cache entry with the default")
	}
	// Workers does not: a four-worker call hits the default call's entry.
	r3, err := Synthesize(flowcSrc, specSrc, &Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r3 {
		t.Error("Workers must not be part of the cache key")
	}
	// Nor does the frozen tier: a Sched that differs from the default
	// only in Freeze hits the nil-Sched entry.
	r5, err := Synthesize(flowcSrc, specSrc, &Options{Sched: &sched.Options{Freeze: true}})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r5 {
		t.Error("Sched.Freeze must not be part of the cache key")
	}
	// Different source text misses.
	other, otherSpec := manyTaskApp(3)
	r4, err := Synthesize(other, otherSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r4 == r1 {
		t.Error("different sources must not collide")
	}
}

// TestCacheOptOut: DisableCache bypasses both lookup and store.
func TestCacheOptOut(t *testing.T) {
	ResetCache()
	defer ResetCache()
	flowcSrc, specSrc := manyTaskApp(2)
	r1, err := Synthesize(flowcSrc, specSrc, &Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Synthesize(flowcSrc, specSrc, &Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Error("DisableCache must not return a shared Result")
	}
	if st := Stats(); st.Entries != 0 || st.Hits != 0 {
		t.Errorf("stats = %+v, want empty cache", st)
	}
}

// TestCacheSpeedup enforces the headline cache property: a warm repeat
// synthesis is at least 10x faster than a cold run. The real margin is
// orders of magnitude (a hash and a map lookup vs the full flow), so
// the 10x floor stays robust on loaded CI machines.
func TestCacheSpeedup(t *testing.T) {
	ResetCache()
	defer ResetCache()
	flowcSrc, specSrc := manyTaskApp(4)
	const rounds = 20
	cold := time.Duration(0)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if _, err := Synthesize(flowcSrc, specSrc, &Options{DisableCache: true}); err != nil {
			t.Fatal(err)
		}
		cold += time.Since(start)
	}
	// Prime, then measure hits.
	if _, err := Synthesize(flowcSrc, specSrc, nil); err != nil {
		t.Fatal(err)
	}
	warm := time.Duration(0)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if _, err := Synthesize(flowcSrc, specSrc, nil); err != nil {
			t.Fatal(err)
		}
		warm += time.Since(start)
	}
	if warm*10 > cold {
		t.Errorf("warm cache not >=10x faster: cold %v, warm %v over %d rounds", cold, warm, rounds)
	}
}
