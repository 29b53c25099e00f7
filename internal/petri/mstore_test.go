package petri

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestMarkingStoreRoundTrip: intern assigns dense IDs in order, lookup
// finds them again, and At returns the exact vector.
func TestMarkingStoreRoundTrip(t *testing.T) {
	const places = 7
	s := NewMarkingStore(places)
	rng := rand.New(rand.NewSource(1))
	var markings []Marking
	seen := map[string]MarkID{}
	for i := 0; i < 500; i++ {
		m := make(Marking, places)
		for j := range m {
			m[j] = int32(rng.Intn(4))
		}
		id, isNew := s.Intern(m)
		if prev, ok := seen[m.Key()]; ok {
			if isNew {
				t.Fatalf("marking %q re-interned as new", m.Key())
			}
			if id != prev {
				t.Fatalf("marking %q changed ID %d -> %d", m.Key(), prev, id)
			}
		} else {
			if !isNew {
				t.Fatalf("fresh marking %q not reported new", m.Key())
			}
			if int(id) != len(seen) {
				t.Fatalf("IDs not dense: got %d for insertion %d", id, len(seen))
			}
			seen[m.Key()] = id
			markings = append(markings, m.Clone())
		}
	}
	if s.Len() != len(seen) {
		t.Fatalf("Len = %d, want %d distinct", s.Len(), len(seen))
	}
	for _, m := range markings {
		id, ok := s.Lookup(m)
		if !ok || id != seen[m.Key()] {
			t.Fatalf("lookup %q = (%v, %v), want (%v, true)", m.Key(), id, ok, seen[m.Key()])
		}
		if !s.At(id).Equal(m) {
			t.Fatalf("At(%d) = %v, want %v", id, s.At(id), m)
		}
	}
	if _, ok := s.Lookup(Marking{9, 9, 9, 9, 9, 9, 9}); ok {
		t.Fatal("lookup of never-interned marking succeeded")
	}
}

// TestMarkingStoreCollisions forces probe collisions: a 2-slot table
// puts every second marking in an occupied bucket, exercising linear
// probing, and the growth path rehashes everything. All round-trips
// must survive.
func TestMarkingStoreCollisions(t *testing.T) {
	const places = 3
	s := newMarkingStoreCap(places, 2)
	var ms []Marking
	for i := 0; i < 64; i++ {
		m := Marking{int32(i), int32(i % 5), int32(i / 3)}
		ms = append(ms, m)
		if id, isNew := s.Intern(m); !isNew || int(id) != i {
			t.Fatalf("intern %v = (%d, %v), want (%d, true)", m, id, isNew, i)
		}
	}
	// Re-intern everything: same IDs, nothing new.
	for i, m := range ms {
		if id, isNew := s.Intern(m); isNew || int(id) != i {
			t.Fatalf("re-intern %v = (%d, %v), want (%d, false)", m, id, isNew, i)
		}
	}
	for i, m := range ms {
		if id, ok := s.Lookup(m); !ok || int(id) != i {
			t.Fatalf("lookup %v = (%d, %v), want (%d, true)", m, id, ok, i)
		}
		if !s.At(MarkID(i)).Equal(m) {
			t.Fatalf("At(%d) = %v, want %v", i, s.At(MarkID(i)), m)
		}
	}
}

// TestMarkingStoreViewStability: views taken before arena growth stay
// readable and equal to the interned vector afterwards.
func TestMarkingStoreViewStability(t *testing.T) {
	s := NewMarkingStore(4)
	first := Marking{1, 2, 3, 4}
	id, _ := s.Intern(first)
	view := s.At(id)
	for i := 0; i < 10000; i++ {
		s.Intern(Marking{int32(i), int32(i + 1), int32(i + 2), int32(i + 3)})
	}
	if !view.Equal(first) {
		t.Fatalf("early view corrupted after growth: %v", view)
	}
	if !s.At(id).Equal(first) {
		t.Fatalf("At(%d) corrupted after growth: %v", id, s.At(id))
	}
}

// TestMarkingStorePages: the page layout tiles the id space without
// gaps or overlaps for narrow, typical and wider-than-a-page markings,
// no page exceeds the byte cap unless one marking does, and every
// marking round-trips across page boundaries.
func TestMarkingStorePages(t *testing.T) {
	for _, places := range []int{1, 7, 60, pageCapBytes/TokenBytes + 1} {
		s := NewMarkingStore(places)
		count := 3000
		if places > 1000 {
			count = 40 // one marking per page; keep the test small
		}
		prevPage, prevOff := 0, -1
		for id := 0; id < count; id++ {
			page, off := s.pageOf(id)
			switch {
			case page == prevPage && off == prevOff+1:
			case page == prevPage+1 && off == 0 && prevOff+1 == s.pageLen(prevPage):
			default:
				t.Fatalf("places=%d: id %d at (%d, %d) does not follow (%d, %d) (page len %d)",
					places, id, page, off, prevPage, prevOff, s.pageLen(prevPage))
			}
			if bytes := s.pageLen(page) * places * TokenBytes; bytes > max(pageCapBytes, places*TokenBytes) {
				t.Fatalf("places=%d: page %d is %d bytes", places, page, bytes)
			}
			prevPage, prevOff = page, off
			m := make(Marking, places)
			for j := range m {
				m[j] = int32(id)
			}
			if got, isNew := s.Intern(m); !isNew || int(got) != id {
				t.Fatalf("places=%d: intern %d = (%d, %v)", places, id, got, isNew)
			}
		}
		for id := 0; id < count; id++ {
			m := s.At(MarkID(id))
			if len(m) != places || cap(m) != places || int(m[0]) != id || int(m[places-1]) != id {
				t.Fatalf("places=%d: At(%d) = len %d cap %d [%d ... %d]", places, id, len(m), cap(m), m[0], m[places-1])
			}
		}
	}
}

// TestMarkingStoreInternBytes: interning copies each token vector once
// into pages that never regrow, and the hash array grows with the probe
// table, so a fresh store interning every marking of a 32,768-state
// ring net allocates at most 1.5x its exact final Mem().HotBytes (an
// arena regrown by append allocates about 5x).
func TestMarkingStoreInternBytes(t *testing.T) {
	r := ringsNet(3, 32).Explore(ExploreOptions{MaxMarkings: 1 << 16})
	if r.Len() != 32*32*32 || r.Truncated {
		t.Fatalf("ring net explored %d states (truncated=%v)", r.Len(), r.Truncated)
	}
	ms := make([]Marking, 0, r.Len())
	for _, m := range r.Store.All() {
		ms = append(ms, m)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewMarkingStore(r.Store.Places())
	for _, m := range ms {
		s.Intern(m)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	hot := s.Mem().HotBytes
	t.Logf("interned %d markings: allocated %dB for %dB hot (%.2fx)", s.Len(), alloc, hot, float64(alloc)/float64(hot))
	if s.Len() != len(ms) {
		t.Fatalf("store holds %d of %d markings", s.Len(), len(ms))
	}
	if float64(alloc) > 1.5*float64(hot) {
		t.Fatalf("interning allocated %dB, more than 1.5x the store's %d hot bytes", alloc, hot)
	}
}

// TestMarkingStoreConcurrentReads: once interning stops, At/Lookup/All
// are safe from many goroutines — the contract the PR-1 worker pool
// relies on. Run under -race (the Makefile does).
func TestMarkingStoreConcurrentReads(t *testing.T) {
	const places = 5
	s := NewMarkingStore(places)
	var ms []Marking
	for i := 0; i < 200; i++ {
		m := Marking{int32(i), int32(i % 7), int32(i % 3), int32(i % 11), int32(i % 2)}
		ms = append(ms, m)
		s.Intern(m)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				i := (w*53 + r*17) % len(ms)
				id, ok := s.Lookup(ms[i])
				if !ok || int(id) != i {
					t.Errorf("concurrent lookup %d = (%d, %v)", i, id, ok)
					return
				}
				if !s.At(id).Equal(ms[i]) {
					t.Errorf("concurrent At(%d) mismatch", id)
					return
				}
				n := 0
				for range s.All() {
					n++
				}
				if n != s.Len() {
					t.Errorf("concurrent All yielded %d of %d", n, s.Len())
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestLookupHashAliased: the hash-only probe backing the dist
// candNew fast path resolves interned markings by bare hash,
// and interning two distinct vectors under one hash flips HashAliased —
// the signal that callers must fall back to vector-exact lookups.
func TestLookupHashAliased(t *testing.T) {
	s := newMarkingStoreCap(3, 2) // tiny table: forces probe runs and growth
	var ms []Marking
	for i := 0; i < 40; i++ {
		m := Marking{int32(i), int32(i % 4), int32(i / 7)}
		ms = append(ms, m)
		s.Intern(m)
	}
	if s.HashAliased() {
		t.Fatal("store reports aliasing without a colliding pair")
	}
	for i, m := range ms {
		id, ok := s.LookupHash(HashMarking(m))
		if !ok || int(id) != i {
			t.Fatalf("LookupHash(%v) = (%d, %v), want (%d, true)", m, id, ok, i)
		}
	}
	if _, ok := s.LookupHash(HashMarking(Marking{99, 99, 99})); ok {
		t.Fatal("LookupHash resolved a never-interned hash")
	}
	// Force an alias: a second vector interned under the first one's
	// hash (InternHashed trusts the caller's hash).
	h0 := HashMarking(ms[0])
	alias := Marking{77, 0, 0}
	id, isNew := s.InternHashed(alias, h0)
	if !isNew || int(id) != len(ms) {
		t.Fatalf("aliased intern = (%d, %v), want (%d, true)", id, isNew, len(ms))
	}
	if !s.HashAliased() {
		t.Fatal("aliasing pair not detected at intern")
	}
	if again, isNew := s.InternHashed(alias, h0); isNew || again != id {
		t.Fatalf("re-intern of aliased vector = (%d, %v), want (%d, false)", again, isNew, id)
	}
	// Exact lookups still resolve both sides of the alias.
	if got, ok := s.LookupHashed(ms[0], h0); !ok || got != 0 {
		t.Fatalf("exact lookup of original = (%d, %v), want (0, true)", got, ok)
	}
	if got, ok := s.LookupHashed(alias, h0); !ok || got != id {
		t.Fatalf("exact lookup of alias = (%d, %v), want (%d, true)", got, ok, id)
	}
}

// TestFireInto: matches Fire, reuses the destination buffer, and a
// self-loop round-trips.
func TestFireInto(t *testing.T) {
	n := New("fire")
	p := n.AddPlace("p", PlaceChannel, 2)
	q := n.AddPlace("q", PlaceChannel, 0)
	tr := n.AddTransition("t", TransNormal)
	n.AddArc(p, tr, 2)
	n.AddArcTP(tr, q, 3)
	m := n.InitialMarking()
	want := m.Fire(tr)
	var scratch Marking
	scratch = m.FireInto(scratch, tr)
	if !scratch.Equal(want) {
		t.Fatalf("FireInto = %v, want %v", scratch, want)
	}
	// Second call must reuse the same backing array.
	prev := &scratch[0]
	scratch = want.FireInto(scratch, tr)
	if &scratch[0] != prev {
		t.Fatal("FireInto reallocated a buffer with sufficient capacity")
	}
	if m[p.ID] != 2 || m[q.ID] != 0 {
		t.Fatalf("FireInto mutated the source marking: %v", m)
	}
}

// TestZeroAllocFiringAndIntern pins the hot pair of the schedule-search
// inner loop: firing into a scratch buffer and interning an
// already-seen marking must not allocate at all.
func TestZeroAllocFiringAndIntern(t *testing.T) {
	n := New("hot")
	p := n.AddPlace("p", PlaceChannel, 1)
	q := n.AddPlace("q", PlaceChannel, 0)
	tr := n.AddTransition("t", TransNormal)
	n.AddArc(p, tr, 1)
	n.AddArcTP(tr, q, 1)
	m := n.InitialMarking()
	s := NewMarkingStore(len(n.Places))
	scratch := make(Marking, len(n.Places))
	scratch = m.FireInto(scratch, tr)
	s.Intern(m)
	s.Intern(scratch)
	allocs := testing.AllocsPerRun(200, func() {
		scratch = m.FireInto(scratch, tr)
		if _, isNew := s.Intern(scratch); isNew {
			t.Fatal("marking should already be interned")
		}
		if _, ok := s.Lookup(m); !ok {
			t.Fatal("lookup lost the initial marking")
		}
	})
	if allocs != 0 {
		t.Fatalf("fire+intern of a seen marking allocated %.1f times per run, want 0", allocs)
	}
}

// TestProbeSpread: HashMarking is a linear sum whose low bits are
// structured, so the probe table takes its home slots from a finalizer
// (probeHash). After exploring two structured nets — the 9⁵ ring
// product and four counters capped at 14 (15⁴ states) — the mean
// linear-probe displacement of the interned states must stay within
// 1.15x of uniform hashing's ½(1+1/(1−α))−1 at the table's load α.
func TestProbeSpread(t *testing.T) {
	counters := New("counters-4")
	for i := 0; i < 4; i++ {
		p := counters.AddPlace(fmt.Sprintf("c%d", i), PlaceChannel, 0)
		inc := counters.AddTransition(fmt.Sprintf("inc%d", i), TransSourceCtl)
		counters.AddArcTP(inc, p, 1)
	}
	cases := []struct {
		name   string
		net    *Net
		opt    ExploreOptions
		states int
	}{
		{"rings-9^5", ringsNet(5, 9), ExploreOptions{MaxMarkings: 1 << 17}, 59049},
		{"counters-15^4", counters, ExploreOptions{MaxMarkings: 1 << 17, MaxTokensPerPlace: 14, FireSources: true}, 50625},
	}
	for _, c := range cases {
		s := c.net.Explore(c.opt).Store
		if s.Len() != c.states {
			t.Fatalf("%s: %d states, want %d", c.name, s.Len(), c.states)
		}
		disp := 0
		for slot, e := range s.table {
			if e != 0 {
				disp += int((uint32(slot) - probeHash(s.hashes[e-1])) & s.mask)
			}
		}
		alpha := float64(s.Len()) / float64(len(s.table))
		mean := float64(disp) / float64(s.Len())
		uniform := (1+1/(1-alpha))/2 - 1
		t.Logf("%s: load %.3f, mean displacement %.3f, uniform %.3f (%.2fx)", c.name, alpha, mean, uniform, mean/uniform)
		if mean > 1.15*uniform {
			t.Errorf("%s: mean probe displacement %.3f exceeds 1.15x uniform (%.3f)", c.name, mean, uniform)
		}
	}
}
