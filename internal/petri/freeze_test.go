package petri

import (
	"math/rand"
	"sync"
	"testing"
)

// TestTokenDeltas: the sparse per-transition effect must match what
// FireInto does to a vector, with self-loops cancelled.
func TestTokenDeltas(t *testing.T) {
	n := New("deltas")
	p := n.AddPlace("p", PlaceChannel, 3)
	q := n.AddPlace("q", PlaceChannel, 0)
	r := n.AddPlace("r", PlaceChannel, 1)
	tr := n.AddTransition("t", TransNormal)
	n.AddArc(p, tr, 2)
	n.AddArcTP(tr, q, 3)
	n.AddArc(r, tr, 1) // self-loop on r:
	n.AddArcTP(tr, r, 1)
	ds := n.TokenDeltas()
	if len(ds) != 1 {
		t.Fatalf("TokenDeltas returned %d transitions, want 1", len(ds))
	}
	m := n.InitialMarking()
	want := m.Fire(tr)
	got := m.Clone()
	for _, d := range ds[0] {
		got[d.Place] += int(d.Delta)
	}
	if !got.Equal(want) {
		t.Fatalf("delta application = %v, want %v", got, want)
	}
	for _, d := range ds[0] {
		if d.Delta == 0 {
			t.Fatalf("zero delta retained for place %d (self-loop not cancelled)", d.Place)
		}
	}
}

// freezeChainStore builds a store holding a root plus a delta chain of
// markings (alternating two synthetic transitions), returning the
// store, the expected vectors, and the provenance function the chain
// implies. Token values exceed one uvarint byte to exercise multi-byte
// verbatim encoding.
func freezeChainStore(t *testing.T, states int) (*MarkingStore, []Marking, func(MarkID) FreezeProv) {
	t.Helper()
	deltas := [][]PlaceDelta{
		{{Place: 0, Delta: 1}, {Place: 2, Delta: -1}},
		{{Place: 1, Delta: 3}, {Place: 2, Delta: 2}},
	}
	s := NewMarkingStore(3)
	if err := s.EnableFreeze(FreezeConfig{Deltas: deltas, ThawCap: 8}); err != nil {
		t.Fatalf("EnableFreeze: %v", err)
	}
	vecs := []Marking{{200, 0, 500}}
	for i := 1; i < states; i++ {
		prev := vecs[i-1]
		next := prev.Clone()
		for _, d := range deltas[i%2] {
			next[d.Place] += int(d.Delta)
		}
		vecs = append(vecs, next)
	}
	for i, v := range vecs {
		if id, isNew := s.Intern(v); !isNew || int(id) != i {
			t.Fatalf("intern %d = (%d, %v)", i, id, isNew)
		}
	}
	prov := func(id MarkID) FreezeProv {
		if id == 0 {
			return FreezeProv{Parent: NoMark}
		}
		return FreezeProv{Parent: id - 1, Trans: int32(id % 2)}
	}
	return s, vecs, prov
}

// TestFreezeThawRoundTrip: freeze in waves, read everything back —
// frozen ids reconstruct byte-identically, hot ids stay direct, lookups
// (vector-exact and hash-only) resolve across the boundary, and views
// taken before a freeze stay valid after it.
func TestFreezeThawRoundTrip(t *testing.T) {
	const states = 100
	s, vecs, prov := freezeChainStore(t, states)
	earlyView := s.At(3)
	for _, end := range []int{1, 7, 7, 5, 40, states} { // repeats and regressions are no-ops
		if err := s.FreezeThrough(end, prov); err != nil {
			t.Fatalf("FreezeThrough(%d): %v", end, err)
		}
	}
	if s.FrozenLen() != states {
		t.Fatalf("FrozenLen = %d, want %d", s.FrozenLen(), states)
	}
	if !earlyView.Equal(vecs[3]) {
		t.Fatalf("pre-freeze view corrupted: %v", earlyView)
	}
	for i, v := range vecs {
		if got := s.At(MarkID(i)); !got.Equal(v) {
			t.Fatalf("At(%d) = %v, want %v", i, got, v)
		}
		if id, ok := s.Lookup(v); !ok || int(id) != i {
			t.Fatalf("Lookup(%v) = (%d, %v), want (%d, true)", v, id, ok, i)
		}
		if id, ok := s.LookupHash(HashMarking(v)); !ok || int(id) != i {
			t.Fatalf("LookupHash of state %d = (%d, %v)", i, id, ok)
		}
	}
	// Random access pattern: thaw-cache eviction (cap 8, chain 100)
	// must never change what At returns.
	rng := rand.New(rand.NewSource(7))
	for r := 0; r < 400; r++ {
		i := rng.Intn(states)
		if got := s.At(MarkID(i)); !got.Equal(vecs[i]) {
			t.Fatalf("random At(%d) = %v, want %v", i, got, vecs[i])
		}
	}
	// Interning continues on top of a fully frozen store.
	fresh := Marking{9, 9, 9}
	id, isNew := s.Intern(fresh)
	if !isNew || int(id) != states {
		t.Fatalf("post-freeze intern = (%d, %v), want (%d, true)", id, isNew, states)
	}
	if !s.At(id).Equal(fresh) {
		t.Fatalf("post-freeze At(%d) = %v", id, s.At(id))
	}
}

// TestFreezeVerbatimFallback: provenance the encoder cannot use — no
// parent, a non-earlier parent, an out-of-range transition — stores the
// vector verbatim and still round-trips.
func TestFreezeVerbatimFallback(t *testing.T) {
	s := NewMarkingStore(2)
	if err := s.EnableFreeze(FreezeConfig{Deltas: [][]PlaceDelta{{{Place: 0, Delta: 1}}}}); err != nil {
		t.Fatalf("EnableFreeze: %v", err)
	}
	vecs := []Marking{{1000, 0}, {3, 128}, {0, 0}}
	for _, v := range vecs {
		s.Intern(v)
	}
	provs := []FreezeProv{
		{Parent: NoMark},           // no parent
		{Parent: 5, Trans: 0},      // parent not earlier than id
		{Parent: 0, Trans: 999999}, // transition out of range
	}
	if err := s.FreezeThrough(3, func(id MarkID) FreezeProv { return provs[id] }); err != nil {
		t.Fatalf("FreezeThrough: %v", err)
	}
	for i, v := range vecs {
		if got := s.At(MarkID(i)); !got.Equal(v) {
			t.Fatalf("At(%d) = %v, want %v", i, got, v)
		}
	}
}

// TestFreezeMemAccounting: Mem() is exact and machine-independent —
// hot bytes are a closed-form function of lengths, frozen bytes equal
// the encoded segment; ArenaBytes stays consistent with it.
func TestFreezeMemAccounting(t *testing.T) {
	const states = 64
	s, _, prov := freezeChainStore(t, states)
	allHot := s.Mem()
	if allHot.FrozenBytes != 0 {
		t.Fatalf("unfrozen store reports FrozenBytes = %d", allHot.FrozenBytes)
	}
	wantHot := int64(states*s.places)*8 + int64(len(s.hashes))*8 + int64(len(s.table))*4
	if allHot.HotBytes != wantHot {
		t.Fatalf("HotBytes = %d, want %d", allHot.HotBytes, wantHot)
	}
	if s.ArenaBytes() != int(wantHot) {
		t.Fatalf("ArenaBytes = %d, want %d (all-hot compatibility)", s.ArenaBytes(), wantHot)
	}
	if err := s.FreezeThrough(states, prov); err != nil {
		t.Fatalf("FreezeThrough: %v", err)
	}
	frozen := s.Mem()
	// Chain of deltas: 63 records of 1+1+1 bytes; the multi-byte-token
	// verbatim root. Segment size is exact, not approximate.
	wantFrozen := int64(63*3) + 1 + 2 + 1 + 2 // tag + uvarint(200),uvarint(0),uvarint(500)
	if frozen.FrozenBytes != wantFrozen {
		t.Fatalf("FrozenBytes = %d, want %d", frozen.FrozenBytes, wantFrozen)
	}
	wantHot = int64(len(s.hashes))*8 + int64(len(s.table))*4 + int64(states)*8 // tokens empty, offs resident
	if frozen.HotBytes != wantHot {
		t.Fatalf("frozen HotBytes = %d, want %d", frozen.HotBytes, wantHot)
	}
	if frozen.HotBytes >= allHot.HotBytes {
		t.Fatalf("freezing did not shrink hot bytes: %d -> %d", allHot.HotBytes, frozen.HotBytes)
	}
	if frozen.Total() != frozen.HotBytes+frozen.FrozenBytes {
		t.Fatalf("Total = %d", frozen.Total())
	}
}

// TestFreezeAliasAfterFreeze is the regression for the HashAliased
// vector-exact fallback over frozen levels: aliasing first appears
// AFTER the level holding the colliding marking froze, so both the
// InternHashed probe that detects the collision and every later
// vector-exact LookupHashed must reconstruct the frozen vector instead
// of reading a hot-arena view.
func TestFreezeAliasAfterFreeze(t *testing.T) {
	s := newMarkingStoreCap(3, 2) // tiny table: forces probe runs through the alias
	if err := s.EnableFreeze(FreezeConfig{Deltas: nil}); err != nil {
		t.Fatalf("EnableFreeze: %v", err)
	}
	var ms []Marking
	for i := 0; i < 40; i++ {
		m := Marking{i, i % 4, i / 7}
		ms = append(ms, m)
		s.Intern(m)
	}
	// Freeze the whole "level" holding every interned marking (nil
	// deltas: everything verbatim).
	if err := s.FreezeThrough(s.Len(), func(MarkID) FreezeProv { return FreezeProv{Parent: NoMark} }); err != nil {
		t.Fatalf("FreezeThrough: %v", err)
	}
	if s.HashAliased() {
		t.Fatal("store reports aliasing before the colliding intern")
	}
	// Aliasing appears now — the colliding marking (id 0) is frozen.
	h0 := HashMarking(ms[0])
	alias := Marking{77, 0, 0}
	id, isNew := s.InternHashed(alias, h0)
	if !isNew || int(id) != len(ms) {
		t.Fatalf("aliased intern = (%d, %v), want (%d, true)", id, isNew, len(ms))
	}
	if !s.HashAliased() {
		t.Fatal("aliasing across the frozen boundary not detected")
	}
	if again, isNew := s.InternHashed(alias, h0); isNew || again != id {
		t.Fatalf("re-intern of alias = (%d, %v), want (%d, false)", again, isNew, id)
	}
	// The vector-exact fallback the dist coordinator uses once
	// HashAliased flips: both sides must resolve, one frozen, one hot.
	if got, ok := s.LookupHashed(ms[0], h0); !ok || got != 0 {
		t.Fatalf("exact lookup of frozen original = (%d, %v), want (0, true)", got, ok)
	}
	if got, ok := s.LookupHashed(alias, h0); !ok || got != id {
		t.Fatalf("exact lookup of hot alias = (%d, %v), want (%d, true)", got, ok, id)
	}
	// And again with the alias frozen too.
	if err := s.FreezeThrough(s.Len(), func(MarkID) FreezeProv { return FreezeProv{Parent: NoMark} }); err != nil {
		t.Fatalf("second FreezeThrough: %v", err)
	}
	if got, ok := s.LookupHashed(alias, h0); !ok || got != id {
		t.Fatalf("exact lookup of frozen alias = (%d, %v), want (%d, true)", got, ok, id)
	}
}

// TestFreezeConcurrentThaw: At on frozen ids is safe from many
// goroutines once mutations stop (run under -race via the Makefile);
// cache eviction churn must not corrupt returned vectors.
func TestFreezeConcurrentThaw(t *testing.T) {
	const states = 80
	s, vecs, prov := freezeChainStore(t, states)
	if err := s.FreezeThrough(states, prov); err != nil {
		t.Fatalf("FreezeThrough: %v", err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				i := (w*31 + r*17) % states
				if got := s.At(MarkID(i)); !got.Equal(vecs[i]) {
					t.Errorf("concurrent At(%d) = %v, want %v", i, got, vecs[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestExploreFreezeLevelsDeterminism: FreezeLevels must not change a
// single byte of the ReachResult — state numbering, edges, clip flags —
// for full and budget/cap-clipped explorations; and the frozen run must
// actually have frozen everything.
func TestExploreFreezeLevelsDeterminism(t *testing.T) {
	cases := []struct {
		name string
		net  *Net
		opt  ExploreOptions
	}{
		{"rings-full", ringsNet(3, 4), ExploreOptions{MaxMarkings: 1000}},
		{"rings-budget", ringsNet(3, 5), ExploreOptions{MaxMarkings: 60}},
		{"simple-capped", simpleNet(t), ExploreOptions{FireSources: true, MaxTokensPerPlace: 4}},
		{"choice", choiceNet(t), ExploreOptions{FireSources: true, MaxTokensPerPlace: 3}},
	}
	for _, c := range cases {
		baseline := c.net.Explore(c.opt)
		opt := c.opt
		opt.FreezeLevels = true
		got := c.net.Explore(opt)
		assertSameReach(t, c.name+"/frozen", baseline, got)
		if !got.Store.FreezeEnabled() {
			t.Fatalf("%s: freezing not enabled", c.name)
		}
		if got.Store.FrozenLen() != got.Store.Len() {
			t.Fatalf("%s: FrozenLen = %d of %d after frozen explore",
				c.name, got.Store.FrozenLen(), got.Store.Len())
		}
		if m := got.Store.Mem(); m.FrozenBytes == 0 && got.Store.Len() > 0 {
			t.Fatalf("%s: no frozen bytes after full freeze", c.name)
		}
	}
}

// TestFreezeWriteFailureReverts: a segment write failure in the middle
// of an exploration reverts it to all-hot. The segment file is closed
// once the second level has committed, so the third level's
// FreezeThrough fails: the run must still complete, nothing later may
// freeze, the states frozen before the failure must read back intact,
// and the ReachResult must equal the all-hot run.
func TestFreezeWriteFailureReverts(t *testing.T) {
	n := ringsNet(3, 4)
	opt := ExploreOptions{MaxMarkings: 1000, FreezeLevels: true}
	allHot := n.Explore(ExploreOptions{MaxMarkings: opt.MaxMarkings})
	part := n.ECSPartition()
	var (
		e         *reachExplorer
		store     *MarkingStore
		commits   int
		frozenEnd int
	)
	ok, err := Drive(n, part, reachSpec(n, part, opt), true, nil, false, func(s *MarkingStore) MergeHooks {
		store = s
		e = newReachExplorer(s, opt.MaxMarkings)
		h := e.mergeHooks()
		h.LevelClosed = func(end int) {
			commits++
			if commits == 2 {
				frozenEnd = s.FrozenLen()
				if s.frozen.data == nil {
					t.Skip("reading a closed segment back needs the mmap'd tier")
				}
				s.frozen.f.Close()
			} else if commits > 2 && s.FrozenLen() != frozenEnd {
				t.Fatalf("level %d froze through %d after the write failure at %d", commits, s.FrozenLen(), frozenEnd)
			}
		}
		return h
	})
	if !ok || err != nil {
		t.Fatalf("Drive = %v, %v; want a completed run", ok, err)
	}
	e.closeRow()
	if commits <= 3 {
		t.Fatalf("only %d level commits; the net is too shallow to test a mid-run failure", commits)
	}
	if frozenEnd == 0 || store.FrozenLen() != frozenEnd {
		t.Fatalf("FrozenLen = %d, want it stuck at the second commit's %d", store.FrozenLen(), frozenEnd)
	}
	for id := 0; id < frozenEnd; id++ {
		if got, want := store.At(MarkID(id)), allHot.MarkingAt(MarkID(id)); !got.Equal(want) {
			t.Fatalf("frozen state %d reads back %v, want %v", id, got, want)
		}
	}
	assertSameReach(t, "write-failure", allHot, e.res)
}
