package petri

import "testing"

// netFromBytes decodes an arbitrary byte string into a small valid net:
// up to 5 places with initial tokens, or 9 to 13 when the first byte is
// 0xF0 or more, up to 6 transitions of varying kinds, and arcs with
// weights 1..3 drawn from the remaining bytes. Every byte string
// decodes to something, so the fuzzer explores net shapes freely
// without needing a structured corpus. A store lays out at most 5
// places in one word; 9 or more that no semiflow or small cap bounds
// take whole bytes, a row wider than a word.
func netFromBytes(data []byte) *Net {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := New("fuzz")
	b := next()
	nPlaces := int(b%5) + 1
	if b >= 0xF0 {
		nPlaces += 8
	}
	for i := 0; i < nPlaces; i++ {
		kind := PlaceInternal
		if next()%3 == 0 {
			kind = PlaceChannel
		}
		n.AddPlace("", kind, int(next()%3))
	}
	nTrans := int(next()%6) + 1
	for i := 0; i < nTrans; i++ {
		kind := TransNormal
		switch next() % 8 {
		case 0:
			kind = TransSourceUnc
		case 1:
			kind = TransSourceCtl
		case 2:
			kind = TransSink
		}
		t := n.AddTransition("", kind)
		nIn := int(next() % 3)
		nOut := int(next() % 3)
		// Sources have no input places by definition; keep the decoder
		// from building nets Validate would reject.
		if t.IsSource() {
			nIn = 0
		}
		for a := 0; a < nIn; a++ {
			p := n.Places[int(next())%nPlaces]
			n.AddArc(p, t, int(next()%3)+1)
		}
		for a := 0; a < nOut; a++ {
			p := n.Places[int(next())%nPlaces]
			n.AddArcTP(t, p, int(next()%3)+1)
		}
	}
	return n
}

// FuzzExplore checks the bounded-reachability contract on arbitrary
// small nets: exploration never panics, never retains more markings
// than MaxMarkings, never retains a non-initial marking violating
// MaxTokensPerPlace, records edges only between retained markings,
// stores every marking's HashMarking value, keeps every count within
// the bound the net's P-semiflows give its place, and matches the
// reference explorer exactly. The cap reads only maxTokens%8, so
// entries that differ in its high bits explore alike. The high bit of
// maxMarkings, which the budget does not read, adds 253 tokens to the
// first place's initial marking, so its counts cross 255, where an
// uncapped exploration's store widens from packed rows, or start above
// a small cap, whose field the store's row layout widens to hold the
// root. A store whose rows fit 8 bytes runs the one-word merge and a
// wider one the byte merge: the checked-in entries one-word-8 and
// byte-rows-9 lay out rows of 8 and 9 bytes, and their -widens twins
// widen each path's store.
func FuzzExplore(f *testing.F) {
	f.Add([]byte{}, uint8(10), uint8(2), true)
	f.Add([]byte{3, 0, 1, 1, 2, 4, 0, 1, 1, 0, 2, 1, 1, 2, 1, 0, 1}, uint8(50), uint8(3), true)
	f.Add([]byte{1, 0, 2, 2, 1, 0, 0, 1, 0, 1}, uint8(0), uint8(0), false)
	f.Add([]byte{3, 0, 1, 1, 2, 4, 0, 1, 1, 0, 2, 1, 1, 2, 1, 0, 1}, uint8(50), uint8(0x83), true)
	f.Fuzz(func(t *testing.T, data []byte, maxMarkings, maxTokens uint8, fireSources bool) {
		n := netFromBytes(data)
		if maxMarkings&0x80 != 0 {
			n.Places[0].Initial += 253
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("decoder produced an invalid net: %v", err)
		}
		opt := ExploreOptions{
			// Small caps keep each exec fast; 0 exercises the defaults.
			MaxMarkings:       int(maxMarkings % 128),
			MaxTokensPerPlace: int(maxTokens % 8),
			FireSources:       fireSources,
		}
		res := n.Explore(opt)
		if s := res.Store; s.narrow && s.word != (s.rowBytes <= 8) {
			t.Fatalf("rows of %d bytes, one word %v", s.rowBytes, s.word)
		}
		limit := opt.MaxMarkings
		if limit == 0 {
			limit = 10000
		}
		if res.Len() > limit {
			t.Fatalf("retained %d markings, cap %d", res.Len(), limit)
		}
		m0 := n.InitialMarking()
		if id, ok := res.Store.LookupHashed(m0, HashMarking(m0)); !ok || id != MarkID(0) {
			t.Fatalf("initial marking not interned as MarkID 0 (id=%v ok=%v)", id, ok)
		}
		// The semiflows of the transitions the exploration fires bound
		// every place, capped or not: caps only veto successors.
		ft := NewFiringTable(n, n.ECSPartition())
		spec := reachSpec(n, ft.part, opt)
		bounds := semiflowBounds(ft, &spec)
		seen := map[string]bool{}
		for id := range MarkID(res.Len()) {
			m := res.Store.At(id)
			for p, v := range m {
				if bounds != nil && uint32(v) > bounds[p] {
					t.Fatalf("marking %d holds %d tokens at place %d, past its semiflow bound %d", id, v, p, bounds[p])
				}
			}
			key := m.Key()
			if seen[key] {
				t.Fatalf("marking %q interned twice (hash-consing broken)", key)
			}
			seen[key] = true
			if got, ok := res.Store.LookupHashed(m, HashMarking(m)); !ok || got != id {
				t.Fatalf("round-trip of interned marking %q failed: got %v ok %v", key, got, ok)
			}
			if opt.MaxTokensPerPlace > 0 && !m.Equal(m0) {
				for p, v := range m {
					if int(v) > opt.MaxTokensPerPlace {
						t.Fatalf("retained marking exceeds token cap at place %d: %d > %d", p, v, opt.MaxTokensPerPlace)
					}
				}
			}
		}
		if len(res.Edges) != res.Len() {
			t.Fatalf("edge table has %d rows for %d markings", len(res.Edges), res.Len())
		}
		for from, edges := range res.Edges {
			for _, e := range edges {
				if int(e.To) >= res.Len() {
					t.Fatalf("edge %d -> %d targets an unretained marking", from, e.To)
				}
				next := res.Store.At(MarkID(from)).Fire(n.Transitions[e.Trans])
				if !next.Equal(res.Store.At(e.To)) {
					t.Fatalf("edge %d -%d-> %d is not a firing", from, e.Trans, e.To)
				}
			}
		}
		assertStoredHashes(t, "fuzz", res)
		// The independent reference explorer must agree byte for byte:
		// same numbering, edges and clip flags.
		assertSameSnapshot(t, "reference", referenceExplore(n, opt), snapshotReach(res))
	})
}
