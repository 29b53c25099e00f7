package petri

import (
	"math/rand"
	"sync"
	"testing"
)

// freezeChainStore builds a store holding a root plus a delta chain of
// markings (alternating two synthetic transitions), each successor
// interned with its parent and transition, and returns the store and
// the expected vectors. Token values exceed one uvarint byte to
// exercise multi-byte verbatim encoding.
func freezeChainStore(t *testing.T, states int) (*MarkingStore, []Marking) {
	t.Helper()
	// t0 moves a token from c to a; t1 adds 3 tokens to b and 2 to c.
	n := New("chain")
	a, b, c := n.AddPlace("a", PlaceChannel, 200), n.AddPlace("b", PlaceChannel, 0), n.AddPlace("c", PlaceChannel, 500)
	t0, t1 := n.AddTransition("t0", TransNormal), n.AddTransition("t1", TransNormal)
	n.AddArc(c, t0, 1)
	n.AddArcTP(t0, a, 1)
	n.AddArcTP(t1, b, 3)
	n.AddArcTP(t1, c, 2)
	s := NewMarkingStore(3)
	if err := s.EnableFreeze(NewFiringTable(n, n.ECSPartition())); err != nil {
		t.Fatalf("EnableFreeze: %v", err)
	}
	vecs := []Marking{n.InitialMarking()}
	for i := 1; i < states; i++ {
		vecs = append(vecs, vecs[i-1].FireInto(nil, n.Transitions[i%2]))
	}
	for i, v := range vecs {
		if id, isNew := s.InternChild(v, HashMarking(v), MarkID(i-1), int32(i%2)); !isNew || int(id) != i {
			t.Fatalf("intern %d = (%d, %v)", i, id, isNew)
		}
	}
	return s, vecs
}

// TestFreezeThawRoundTrip: freeze in waves, read everything back —
// frozen ids reconstruct byte-identically, hot ids stay direct, lookups
// (vector-exact and hash-only) resolve across the boundary, and views
// taken before a freeze stay valid after it.
func TestFreezeThawRoundTrip(t *testing.T) {
	const states = 4 * thawCap
	s, vecs := freezeChainStore(t, states)
	earlyView := s.At(3)
	for _, end := range []int{1, 7, 7, 5, 40, states} { // repeats and regressions are no-ops
		if err := s.FreezeThrough(end); err != nil {
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
		if id, ok := s.LookupHashed(v, HashMarking(v)); !ok || int(id) != i {
			t.Fatalf("LookupHashed(%v) = (%d, %v), want (%d, true)", v, id, ok, i)
		}
		if id, ok := s.LookupHash(HashMarking(v)); !ok || int(id) != i {
			t.Fatalf("LookupHash of state %d = (%d, %v)", i, id, ok)
		}
	}
	// Random access pattern: thaw-cache eviction (a chain four times
	// the cache) must never change what At returns.
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
	n := New("one")
	n.AddArcTP(n.AddTransition("t", TransNormal), n.AddPlace("p", PlaceChannel, 0), 1)
	n.AddPlace("q", PlaceChannel, 0)
	s := NewMarkingStore(2)
	if err := s.EnableFreeze(NewFiringTable(n, n.ECSPartition())); err != nil {
		t.Fatalf("EnableFreeze: %v", err)
	}
	vecs := []Marking{{1000, 0}, {3, 128}, {0, 0}}
	parents := []struct {
		id    MarkID
		trans int32
	}{
		{NoMark, 0}, // no parent
		{5, 0},      // parent not earlier than id
		{0, 999999}, // transition out of range
	}
	for i, v := range vecs {
		s.InternChild(v, HashMarking(v), parents[i].id, parents[i].trans)
	}
	if err := s.FreezeThrough(3); err != nil {
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
// the encoded segment.
func TestFreezeMemAccounting(t *testing.T) {
	const states = 64
	s, _ := freezeChainStore(t, states)
	allHot := s.Mem()
	if allHot.FrozenBytes != 0 {
		t.Fatalf("unfrozen store reports FrozenBytes = %d", allHot.FrozenBytes)
	}
	// Tokens, hashes, the table, and 8 bytes of provenance per state
	// not yet frozen.
	wantHot := int64(states*s.places)*TokenBytes + int64(len(s.hashes))*8 + int64(len(s.table))*4 + int64(states)*8
	if allHot.HotBytes != wantHot {
		t.Fatalf("HotBytes = %d, want %d", allHot.HotBytes, wantHot)
	}
	if err := s.FreezeThrough(states); err != nil {
		t.Fatalf("FreezeThrough: %v", err)
	}
	frozen := s.Mem()
	// Chain of deltas: 63 records of 1+1+1 bytes; the multi-byte-token
	// verbatim root. Segment size is exact, not approximate.
	wantFrozen := int64(63*3) + 1 + 2 + 1 + 2 // tag + uvarint(200),uvarint(0),uvarint(500)
	if frozen.FrozenBytes != wantFrozen {
		t.Fatalf("FrozenBytes = %d, want %d", frozen.FrozenBytes, wantFrozen)
	}
	wantHot = int64(len(s.hashes))*8 + int64(len(s.table))*4 + int64(states)*8 // tokens and provenance empty, offs resident
	if frozen.HotBytes != wantHot {
		t.Fatalf("frozen HotBytes = %d, want %d", frozen.HotBytes, wantHot)
	}
	if frozen.HotBytes >= allHot.HotBytes {
		t.Fatalf("freezing did not shrink hot bytes: %d -> %d", allHot.HotBytes, frozen.HotBytes)
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
	// A net without transitions: every record freezes verbatim.
	if err := s.EnableFreeze(NewFiringTable(New("none"), nil)); err != nil {
		t.Fatalf("EnableFreeze: %v", err)
	}
	var ms []Marking
	for i := 0; i < 40; i++ {
		m := Marking{int32(i), int32(i % 4), int32(i / 7)}
		ms = append(ms, m)
		s.Intern(m)
	}
	// Freeze the whole "level" holding every interned marking.
	if err := s.FreezeThrough(s.Len()); err != nil {
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
	if err := s.FreezeThrough(s.Len()); err != nil {
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
	const states = 2 * thawCap
	s, vecs := freezeChainStore(t, states)
	if err := s.FreezeThrough(states); err != nil {
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

// TestExploreFreezeLevelsDeterminism: ExploreOptions.Freeze must not change a
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
		opt.Freeze = true
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

// TestFreezeThroughWriteFailure: a segment write failure is the
// store's own business. The failing FreezeThrough reports it once; from
// then on the store neither freezes nor records provenance, interning
// goes on all-hot, and the ids frozen before the failure read back.
func TestFreezeThroughWriteFailure(t *testing.T) {
	const states = 40
	s, vecs := freezeChainStore(t, states)
	if err := s.FreezeThrough(10); err != nil {
		t.Fatalf("FreezeThrough(10): %v", err)
	}
	if s.frozen.data == nil {
		t.Skip("reading a closed segment back needs the mmap'd tier")
	}
	s.frozen.f.Close()
	if err := s.FreezeThrough(20); err == nil {
		t.Fatal("FreezeThrough on a closed segment reported no error")
	}
	if s.FreezeEnabled() {
		t.Fatal("store still reports freezing after the write failure")
	}
	if err := s.FreezeThrough(30); err != nil {
		t.Fatalf("FreezeThrough after the failure: %v, want a silent no-op", err)
	}
	if s.FrozenLen() != 10 {
		t.Fatalf("FrozenLen = %d, want it stuck at 10", s.FrozenLen())
	}
	fresh := Marking{9, 9, 9}
	if id, isNew := s.InternChild(fresh, HashMarking(fresh), states-1, 0); !isNew || int(id) != states {
		t.Fatalf("intern after the failure = (%d, %v), want (%d, true)", id, isNew, states)
	}
	vecs = append(vecs, fresh)
	for i, v := range vecs {
		if got := s.At(MarkID(i)); !got.Equal(v) {
			t.Fatalf("At(%d) = %v, want %v", i, got, v)
		}
	}
	m := s.Mem()
	if want := int64(len(vecs)-10)*int64(s.places)*TokenBytes + int64(len(s.hashes))*8 + int64(len(s.table))*4 + 10*8; m.HotBytes != want {
		t.Fatalf("HotBytes = %d, want %d (no provenance kept after the failure)", m.HotBytes, want)
	}
}

// TestFreezeWriteFailureReverts: a segment write failure in the middle
// of an exploration reverts it to all-hot. The segment file is closed
// once the second level has committed, as the first state of the third
// level begins, so the third level's FreezeThrough fails: the run must
// still complete, nothing later may freeze, the states frozen before
// the failure must read back intact, and the ReachResult must equal
// the all-hot run.
func TestFreezeWriteFailureReverts(t *testing.T) {
	n := ringsNet(3, 4)
	opt := ExploreOptions{MaxMarkings: 1000, Freeze: true}
	allHot := n.Explore(ExploreOptions{MaxMarkings: opt.MaxMarkings})
	ft := NewFiringTable(n, n.ECSPartition())
	var (
		e         *reachExplorer
		store     *MarkingStore
		commits   int
		frozenEnd int
	)
	ok, err := Drive(ft, reachSpec(n, ft.part, opt), nil, opt.Freeze, func(s *MarkingStore) MergeHooks {
		store = s
		e = newReachExplorer(s, opt.MaxMarkings)
		h := e.mergeHooks()
		begin, levelEnd := h.BeginState, 1
		// Drive freezes a level as the next one begins: at the first
		// state of each level, every earlier level has committed.
		h.BeginState = func(id MarkID) {
			if int(id) == levelEnd {
				commits++
				levelEnd = s.Len()
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
			if begin != nil {
				begin(id)
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
