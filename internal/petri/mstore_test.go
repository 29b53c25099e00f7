package petri

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// encoding is a page encoding a store test runs on: the int32 pages of
// NewMarkingStore (a nil limit), or narrow rows laid out for counts up
// to limit(p) at place p.
type encoding struct {
	name  string
	limit func(p int) uint32
}

// encodings are the encodings every store test runs on: int32 pages,
// the one-byte rows of an inline exploration whose places have neither
// a cap nor a semiflow bound, and a mixed row of 8-, 1-, 3- and 0-bit
// fields, in turn, as a capped search lays out.
var encodings = []encoding{
	{"wide", nil},
	{"narrow", limits(math.MaxUint8)},
	{"mixed", limits(math.MaxUint8, 1, 7, 0)},
}

// limits returns the limit function that gives place p the limit
// l[p%len(l)].
func limits(l ...uint32) func(p int) uint32 {
	return func(p int) uint32 { return l[p%len(l)] }
}

// fit clamps each count of m to what its field holds under enc, so that
// a narrow store keeps m narrow.
func (enc encoding) fit(m Marking) Marking {
	if enc.limit != nil {
		for p, v := range m {
			m[p] = min(v, int32(enc.limit(p)))
		}
	}
	return m
}

// newTestStore returns an empty store in the given encoding.
func newTestStore(places int, enc encoding) *MarkingStore {
	return newMarkingStoreCap(places, 1<<10, enc.limit)
}

// TestMarkingStoreRoundTrip: intern assigns dense IDs in order, lookup
// finds them again, and At and Load return the exact vector.
func TestMarkingStoreRoundTrip(t *testing.T) {
	for _, enc := range encodings {
		t.Run(enc.name, func(t *testing.T) { testMarkingStoreRoundTrip(t, enc) })
	}
}

// testMarkingStoreRoundTrip runs TestMarkingStoreRoundTrip on one
// encoding. Its counts fit the encoding's fields, so a narrow store
// stays narrow.
func testMarkingStoreRoundTrip(t *testing.T, enc encoding) {
	const places = 7
	s := newTestStore(places, enc)
	rng := rand.New(rand.NewSource(1))
	var markings []Marking
	seen := map[string]MarkID{}
	for i := 0; i < 500; i++ {
		m := make(Marking, places)
		for j := range m {
			m[j] = int32(rng.Intn(4))
		}
		id, isNew := s.Intern(enc.fit(m))
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
	if s.narrow != (enc.limit != nil) {
		t.Fatalf("narrow = %v after interning counts that fit", s.narrow)
	}
	for _, m := range markings {
		id, ok := s.LookupHashed(m, HashMarking(m))
		if !ok || id != seen[m.Key()] {
			t.Fatalf("lookup %q = (%v, %v), want (%v, true)", m.Key(), id, ok, seen[m.Key()])
		}
		if !s.At(id).Equal(m) {
			t.Fatalf("At(%d) = %v, want %v", id, s.At(id), m)
		}
		if got := s.Load(nil, id); !got.Equal(m) {
			t.Fatalf("Load(%d) = %v, want %v", id, got, m)
		}
	}
	absent := Marking{9, 9, 9, 9, 9, 9, 9}
	if _, ok := s.LookupHashed(absent, HashMarking(absent)); ok {
		t.Fatal("lookup of never-interned marking succeeded")
	}
}

// TestMarkingStoreCollisions forces probe collisions: a 2-slot table
// puts every second marking in an occupied bucket, exercising linear
// probing, and the growth path rehashes everything. All round-trips
// must survive.
func TestMarkingStoreCollisions(t *testing.T) {
	const places = 3
	s := newMarkingStoreCap(places, 2, nil)
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
		if id, ok := s.LookupHashed(m, HashMarking(m)); !ok || int(id) != i {
			t.Fatalf("lookup %v = (%d, %v), want (%d, true)", m, id, ok, i)
		}
		if !s.At(MarkID(i)).Equal(m) {
			t.Fatalf("At(%d) = %v, want %v", i, s.At(MarkID(i)), m)
		}
	}
}

// TestMarkingStoreViewStability: views taken before arena growth stay
// readable and equal to the interned vector afterwards. Counts run up
// to 10,002, so a narrow store widens: the one-byte one in the middle,
// after the views of its narrow pages were taken, and the mixed one at
// its first marking.
func TestMarkingStoreViewStability(t *testing.T) {
	for _, enc := range encodings {
		t.Run(enc.name, func(t *testing.T) {
			s := newTestStore(4, enc)
			first := Marking{1, 2, 3, 4}
			id, _ := s.Intern(first)
			view := s.At(id)
			var views []Marking
			for i := 0; i < 10000; i++ {
				mid, _ := s.Intern(Marking{int32(i), int32(i + 1), int32(i + 2), int32(i + 3)})
				if i%50 == 0 {
					views = append(views, s.At(mid))
				}
			}
			if s.narrow {
				t.Fatal("a store holding counts above 255 did not widen")
			}
			if !view.Equal(first) {
				t.Fatalf("early view corrupted after growth: %v", view)
			}
			if !s.At(id).Equal(first) {
				t.Fatalf("At(%d) corrupted after growth: %v", id, s.At(id))
			}
			for k, v := range views {
				i := int32(k * 50)
				if want := (Marking{i, i + 1, i + 2, i + 3}); !v.Equal(want) {
					t.Fatalf("view of marking %v reads %v after growth", want, v)
				}
			}
		})
	}
}

// TestMarkingStoreWiden: a narrow store holding markings that fit its
// rows widens, once and in place, when it interns a count of 256.
// Every earlier id reads the same through At, Load, LookupHashed and
// HashAt before and after, views taken before the widen still read
// correctly, and Mem counts one row per marking before and TokenBytes
// per count after. The rows are one byte per place ("freeze=false",
// the name the subtest had when the store could also freeze its first
// ids), or a mixed layout of 8-, 1-, 8-, 0- and 3-bit fields, in which
// the widen decodes packed rows.
func TestMarkingStoreWiden(t *testing.T) {
	for _, c := range []struct {
		name     string
		limit    func(p int) uint32
		rowBytes int64
	}{
		{"freeze=false", limits(math.MaxUint8), 5},
		{"mixed", limits(math.MaxUint8, 1, math.MaxUint8, 0, 7), 3},
	} {
		t.Run(c.name, func(t *testing.T) { testMarkingStoreWiden(t, c.limit, c.rowBytes) })
	}
}

func testMarkingStoreWiden(t *testing.T, limit func(p int) uint32, rowBytes int64) {
	const places, count = 5, 300
	s := newMarkingStoreCap(places, 1<<10, limit)
	var ms []Marking
	for i := range count {
		m := Marking{int32(i % 256), int32(i / 256), 255, 0, int32(i % 7)}
		if id, isNew := s.Intern(m); !isNew || int(id) != i {
			t.Fatalf("intern %v = (%d, %v), want (%d, true)", m, id, isNew, i)
		}
		ms = append(ms, m)
	}
	views := make([]Marking, len(ms))
	check := func(stage string) {
		t.Helper()
		var buf Marking
		for i, m := range ms {
			id := MarkID(i)
			if !s.At(id).Equal(m) || !views[i].Equal(m) {
				t.Fatalf("%s: At(%d) = %v, view %v, want %v", stage, id, s.At(id), views[i], m)
			}
			if buf = s.Load(buf, id); !buf.Equal(m) {
				t.Fatalf("%s: Load(%d) = %v, want %v", stage, id, buf, m)
			}
			if got, ok := s.LookupHashed(m, HashMarking(m)); !ok || got != id {
				t.Fatalf("%s: LookupHashed(%v) = (%d, %v), want (%d, true)", stage, m, got, ok, id)
			}
			if s.HashAt(id) != HashMarking(m) {
				t.Fatalf("%s: HashAt(%d) = %#x, want %#x", stage, id, s.HashAt(id), HashMarking(m))
			}
		}
	}
	for i := range ms {
		views[i] = s.At(MarkID(i))
	}
	check("narrow")
	// Mem's hot bytes, less the vectors at the store's row size.
	rest := func() int64 { return s.Mem().HotBytes - int64(s.Len())*s.rowSize() }
	if !s.narrow || s.rowSize() != rowBytes {
		t.Fatalf("counts that fit widened the store, or rows are %d bytes (narrow %v), want %d", s.rowSize(), s.narrow, rowBytes)
	}
	before := rest()
	big := Marking{256, 0, 0, 0, 0}
	id, isNew := s.Intern(big)
	if !isNew || int(id) != count || s.narrow {
		t.Fatalf("intern %v = (%d, %v), narrow %v; want (%d, true), wide", big, id, isNew, s.narrow, count)
	}
	check("wide")
	if !s.At(id).Equal(big) {
		t.Fatalf("At(%d) = %v, want %v", id, s.At(id), big)
	}
	// One more hash.
	if s.rowSize() != places*TokenBytes {
		t.Fatalf("wide rows are %d bytes, want %d", s.rowSize(), places*TokenBytes)
	}
	if got, want := rest(), before+8; got != want {
		t.Fatalf("hot bytes less vectors: %d after the widen, want %d", got, want)
	}
}

// TestMarkingStorePages: the page layout tiles the id space without
// gaps or overlaps for narrow, typical and wider-than-a-page markings,
// no page exceeds the byte cap unless one row does, and every marking
// round-trips across page boundaries.
func TestMarkingStorePages(t *testing.T) {
	for _, enc := range encodings {
		t.Run(enc.name, func(t *testing.T) { testMarkingStorePages(t, enc) })
	}
}

// testMarkingStorePages runs TestMarkingStorePages on one encoding. A
// place's count is the id, masked to its field unless the field is a
// whole byte, so a narrow store widens at id 256.
func testMarkingStorePages(t *testing.T, enc encoding) {
	for _, places := range []int{1, 7, 60, pageCapBytes/TokenBytes + 1} {
		s := newTestStore(places, enc)
		count := 3000
		if places > 1000 {
			count = 40 // one marking per page; keep the test small
		}
		var ms []Marking
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
			if w := int(s.rowSize()); s.pageLen(page)*w > max(pageCapBytes, w) {
				t.Fatalf("places=%d: page %d is %d bytes", places, page, s.pageLen(page)*w)
			}
			prevPage, prevOff = page, off
			m := make(Marking, places)
			for j := range m {
				m[j] = int32(id)
				if enc.limit != nil && enc.limit(j) < math.MaxUint8 {
					m[j] &= int32(enc.limit(j))
				}
			}
			if got, isNew := s.Intern(m); !isNew || int(got) != id {
				t.Fatalf("places=%d: intern %d = (%d, %v)", places, id, got, isNew)
			}
			ms = append(ms, m)
		}
		for id, want := range ms {
			m := s.At(MarkID(id))
			if cap(m) != places || !m.Equal(want) {
				t.Fatalf("places=%d: At(%d) = len %d cap %d, want %d counts, first %d", places, id, len(m), cap(m), places, want[0])
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
	for id := range r.Len() {
		ms = append(ms, r.Store.At(MarkID(id)))
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

// TestMarkingStoreConcurrentReads: once interning stops, At, Load and
// LookupHashed are safe from many goroutines — the contract of a
// finished ReachResult's store. Run under -race (the Makefile does).
func TestMarkingStoreConcurrentReads(t *testing.T) {
	for _, enc := range encodings {
		t.Run(enc.name, func(t *testing.T) { testMarkingStoreConcurrentReads(t, enc) })
	}
}

func testMarkingStoreConcurrentReads(t *testing.T, enc encoding) {
	const places = 5
	s := newTestStore(places, enc)
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
			var buf Marking
			for r := 0; r < 50; r++ {
				i := (w*53 + r*17) % len(ms)
				id, ok := s.LookupHashed(ms[i], HashMarking(ms[i]))
				if !ok || int(id) != i {
					t.Errorf("concurrent lookup %d = (%d, %v)", i, id, ok)
					return
				}
				if !s.At(id).Equal(ms[i]) {
					t.Errorf("concurrent At(%d) mismatch", id)
					return
				}
				for id := range s.Len() {
					if buf = s.Load(buf, MarkID(id)); !buf.Equal(ms[id]) {
						t.Errorf("concurrent Load(%d) = %v, want %v", id, buf, ms[id])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestLookupHashAliased: the hash-only probe backing the dist
// candNew fast path resolves interned markings by bare hash,
// and interning two distinct vectors under one hash flips HashAliased —
// the signal that callers must fall back to vector-exact lookups. The
// alias differs from its twin in the last place only, so every vector
// compare, the narrow store's row probe included, must read it. Every
// count fits the encoding's fields, so a narrow store stays narrow.
func TestLookupHashAliased(t *testing.T) {
	for _, enc := range encodings {
		t.Run(enc.name, func(t *testing.T) { testLookupHashAliased(t, enc) })
	}
}

func testLookupHashAliased(t *testing.T, enc encoding) {
	s := newMarkingStoreCap(3, 2, enc.limit) // tiny table: forces probe runs and growth
	var ms []Marking
	for i := 0; i < 40; i++ {
		m := enc.fit(Marking{int32(i), int32(i % 4), int32(i / 7)})
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
	alias := enc.fit(Marking{0, 0, 77})
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
	if enc.limit == nil {
		return
	}
	if !s.narrow {
		t.Fatal("counts that fit widened the store")
	}
	// The row probe of the inline explorer resolves both sides too, and
	// a third vector under the same hash is absent.
	for _, c := range []struct {
		m    Marking
		want MarkID
	}{{Marking{0, 0, 0}, 0}, {alias, id}, {Marking{1, 0, 0}, NoMark}} {
		row := make([]uint8, s.rowBytes)
		if !s.pack(row, c.m) {
			t.Fatalf("%v does not fit the store's rows", c.m)
		}
		if got, _, alias := s.findBytes(row, h0); got != c.want || alias != (c.want == NoMark) {
			t.Fatalf("findBytes(%v) = (%d, alias %v), want %d", c.m, got, alias, c.want)
		}
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
// already-seen marking must not allocate at all, nor must loading a
// stored marking into a buffer.
func TestZeroAllocFiringAndIntern(t *testing.T) {
	for _, enc := range encodings {
		t.Run(enc.name, func(t *testing.T) { testZeroAllocFiringAndIntern(t, enc) })
	}
}

func testZeroAllocFiringAndIntern(t *testing.T, enc encoding) {
	n := New("hot")
	p := n.AddPlace("p", PlaceChannel, 1)
	q := n.AddPlace("q", PlaceChannel, 0)
	tr := n.AddTransition("t", TransNormal)
	n.AddArc(p, tr, 1)
	n.AddArcTP(tr, q, 1)
	m := n.InitialMarking()
	s := newTestStore(len(n.Places), enc)
	scratch := make(Marking, len(n.Places))
	scratch = m.FireInto(scratch, tr)
	s.Intern(m)
	s.Intern(scratch)
	buf := make(Marking, len(n.Places))
	allocs := testing.AllocsPerRun(200, func() {
		scratch = m.FireInto(scratch, tr)
		if _, isNew := s.Intern(scratch); isNew {
			t.Fatal("marking should already be interned")
		}
		if _, ok := s.LookupHashed(m, HashMarking(m)); !ok {
			t.Fatal("lookup lost the initial marking")
		}
		if buf = s.Load(buf, 1); !buf.Equal(scratch) {
			t.Fatal("Load lost the fired marking")
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
