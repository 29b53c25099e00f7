package petri

import (
	"iter"
	"math/bits"
)

// Hash-consed marking storage. Every hot loop of the scheduler — the
// marking-graph engine, the EP/EP_ECS tree searches and the bounded
// reachability explorer — needs to answer "have I seen this marking
// before?" millions of times. Keying maps with Marking.Key() built each
// marking a fresh formatted string (the dominant cost of a cold
// synthesis, ~60% of CPU in profiles); the MarkingStore instead interns
// each distinct marking exactly once behind a compact MarkID, using an
// additive hash over the token vector (see HashMarking) and an
// open-addressing table, so identity checks collapse to integer
// compares and lookups never allocate. Because the hash is a linear
// sum, its low bits are structured; the table therefore takes its
// linear-probe home slot from a 64-bit finalizer of the hash
// (probeHash), never from the raw low bits.
//
// Token vectors live in fixed pages of TokenBytes-wide counts, allocated
// once and never moved or rewritten: each marking's tokens are copied
// in exactly once, at intern, and every At view points straight into
// its page. Page sizes double from a small first page up to a fixed
// byte cap, so a 100-state search stays small and a large exploration
// allocates each token byte about once.

// MarkID identifies an interned marking within one MarkingStore. IDs are
// dense: the store assigns 0, 1, 2, ... in interning order, so a MarkID
// doubles as an index into any per-marking side table.
type MarkID uint32

// NoMark is the sentinel for "no marking" in APIs that may fail to
// resolve one.
const NoMark = MarkID(^uint32(0))

// MarkingStore interns token vectors of a fixed length (one slot per
// place of the net). The zero value is not usable — construct with
// NewMarkingStore.
//
// Concurrency: interning and FreezeThrough mutate the store and must be
// serialized by the caller. Read-only use (At, Lookup, Len, All) is
// safe from any number of goroutines once no more mutations occur —
// e.g. a ReachResult.Store may be read concurrently after Explore
// returns; At on a frozen id memoizes thawed vectors behind the tier's
// own lock. The schedule-search engines keep one private store per
// search, so the concurrent per-source searches of the PR-1 worker pool
// never contend on one.
type MarkingStore struct {
	places int
	// pages hold the token vectors of hot ids (see pageOf for the
	// layout); a page wholly below frozenEnd is released to nil.
	pages      [][]int32
	firstShift uint     // page 0 holds 1<<firstShift markings
	capShift   uint     // pages stop doubling at 1<<capShift markings
	hashes     []uint64 // hash per interned marking, reused on growth; never frozen
	table      []uint32 // open addressing, entry = id+1, 0 = empty; never frozen
	mask       uint32
	aliased    bool        // two distinct interned markings share a 64-bit hash
	frozenEnd  int         // ids [0, frozenEnd) live in the frozen tier, not the pages
	frozen     *frozenTier // nil until EnableFreeze (see freeze.go)
}

// Page geometry: the first page holds up to 1<<firstPageShift markings
// and later pages double until one would exceed pageCapBytes of
// TokenBytes-wide counts.
const (
	firstPageShift = 6
	pageCapBytes   = 64 << 10
)

// NewMarkingStore returns an empty store for markings over the given
// number of places.
func NewMarkingStore(places int) *MarkingStore {
	return newMarkingStoreCap(places, 1<<10)
}

// newMarkingStoreCap builds a store with an explicit initial table size
// (a power of two). Tests use tiny tables to force probe collisions.
func newMarkingStoreCap(places, tableSize int) *MarkingStore {
	if tableSize < 2 || tableSize&(tableSize-1) != 0 {
		panic("petri: marking store table size must be a power of two >= 2")
	}
	capShift := uint(0)
	for (2<<capShift)*max(places, 1)*TokenBytes <= pageCapBytes {
		capShift++
	}
	return &MarkingStore{
		places:     places,
		firstShift: min(firstPageShift, capShift),
		capShift:   capShift,
		table:      make([]uint32, tableSize),
		mask:       uint32(tableSize - 1),
	}
}

// pageOf maps an id to its token page and its marking offset within
// that page. Page 0 holds ids [0, F) with F = 1<<firstShift; page k >= 1
// starts at id F<<(k-1) and holds as many ids as precede it, until
// pages reach C = 1<<capShift ids; from id C on every page holds C ids.
// Both branches are a few shifts, so At stays O(1).
func (s *MarkingStore) pageOf(id int) (page, off int) {
	if id < 1<<s.capShift {
		page = bits.Len(uint(id >> s.firstShift))
		if page == 0 {
			return 0, id
		}
		return page, id - 1<<(s.firstShift+uint(page)-1)
	}
	return int(s.capShift-s.firstShift) + id>>s.capShift, id & (1<<s.capShift - 1)
}

// pageLen returns the number of markings page k holds.
func (s *MarkingStore) pageLen(k int) int {
	if k == 0 {
		return 1 << s.firstShift
	}
	return 1 << min(s.firstShift+uint(k)-1, s.capShift)
}

// hot returns the page view of an id at or above frozenEnd.
func (s *MarkingStore) hot(id int) Marking {
	page, off := s.pageOf(id)
	i := off * s.places
	return Marking(s.pages[page][i : i+s.places : i+s.places])
}

// Len returns the number of distinct markings interned.
func (s *MarkingStore) Len() int { return len(s.hashes) }

// Places returns the token-vector length the store was built for.
func (s *MarkingStore) Places() int { return s.places }

// At returns the interned marking as a read-only view: callers must not
// mutate it. Hot ids resolve to a view into the marking's token page;
// frozen ids (below FrozenLen) are reconstructed on demand from the
// delta segment, memoized by the tier's thaw cache. Either way the view
// stays valid across later Intern and FreezeThrough calls — a page is
// never written again after its markings are interned, and freezing
// only drops the store's reference to it — so it is safe to hold one
// across further interning.
func (s *MarkingStore) At(id MarkID) Marking {
	if int(id) < s.frozenEnd {
		return s.frozen.thaw(s, id)
	}
	return s.hot(int(id))
}

// HashMarking is the hash every marking store keys on: the additive
// sum Σ m[p]·w(p) mod 2⁶⁴, with w(p) a fixed odd pseudo-random weight
// per place index (splitmix64 of the index). It is deterministic across
// processes, so interning order (and everything derived from it) is
// reproducible, and it is linear: firing a transition t changes it by
// a constant Δ(t), so an explorer derives a successor's hash from its
// parent's in O(1) (FiringTable.Hash) and never rehashes the vector.
// Two distinct markings collide only when their difference vector d
// satisfies Σ d[p]·w(p) ≡ 0 mod 2⁶⁴, which for pseudo-random odd
// weights and small token counts has probability about 2⁻⁶⁴ per pair.
// Exposed so pipelines that shard or batch markings can hash once and
// hand the value to InternHashed/LookupHashed.
func HashMarking(m Marking) uint64 {
	var h uint64
	n := min(len(m), len(placeWeights))
	w := placeWeights[:n]
	for i, v := range m[:n] {
		h += uint64(v) * w[i]
	}
	for i := n; i < len(m); i++ {
		h += uint64(m[i]) * placeWeight(i)
	}
	return h
}

// placeWeights holds the hash weight of the first places, filled at
// package init, so that HashMarking is a multiply-add per token word;
// wider markings compute the weights of the remaining places per call.
var placeWeights [1 << 12]uint64

func init() {
	for p := range placeWeights {
		placeWeights[p] = splitmix64(uint64(p)) | 1
	}
}

// placeWeight returns the HashMarking weight of place p.
func placeWeight(p int) uint64 {
	if p < len(placeWeights) {
		return placeWeights[p]
	}
	return splitmix64(uint64(p)) | 1
}

// splitmix64 is the SplitMix64 output function: a bijective 64-bit
// mixer whose outputs look independent for consecutive inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// probeHash is the finalizer (MurmurHash3's fmix64) the probe table
// takes its home slots from, as the low bits of the result.
// HashMarking's low bits depend only on the low bits of the weights and
// token counts, so the markings of a structured net cluster there; the
// finalizer spreads every bit of the hash over the slot bits.
// ShardOfHash keeps the raw hash's top bits.
func probeHash(h uint64) uint32 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return uint32(h)
}

// HashAt returns the stored HashMarking value of an interned marking —
// the store keeps every hash for table growth, so shard-ownership
// decisions over interned states (frontier partitioning across workers)
// never rehash the vector.
func (s *MarkingStore) HashAt(id MarkID) uint64 { return s.hashes[id] }

// Lookup returns the MarkID of m if it is interned. It never allocates.
func (s *MarkingStore) Lookup(m Marking) (MarkID, bool) {
	return s.LookupHashed(m, HashMarking(m))
}

// LookupHashed is Lookup with a caller-precomputed HashMarking value.
func (s *MarkingStore) LookupHashed(m Marking, h uint64) (MarkID, bool) {
	for slot := probeHash(h) & s.mask; ; slot = (slot + 1) & s.mask {
		e := s.table[slot]
		if e == 0 {
			return NoMark, false
		}
		id := MarkID(e - 1)
		if s.hashes[id] == h && s.At(id).Equal(m) {
			return id, true
		}
	}
}

// LookupHash resolves a bare 64-bit HashMarking value to the interned
// marking carrying it, without the vector compare Lookup performs — the
// distributed coordinator's fast path for classifying a successor whose
// hash a worker shipped (a dist candNew candidate), saving the re-fire
// that producing the vector would cost. The probe trusts hash equality, so
// it is exact only while HashAliased is false: callers must fall back
// to vector-exact resolution once the store is known to hold two
// distinct markings with one hash, and accept the ~len·2⁻⁶⁴ per-probe
// chance, resting on HashMarking's pseudo-random place weights, that a
// marking NOT in the store aliases one that is (the hash-compaction
// caveat documented in package internal/dist).
func (s *MarkingStore) LookupHash(h uint64) (MarkID, bool) {
	for slot := probeHash(h) & s.mask; ; slot = (slot + 1) & s.mask {
		e := s.table[slot]
		if e == 0 {
			return NoMark, false
		}
		if id := MarkID(e - 1); s.hashes[id] == h {
			return id, true
		}
	}
}

// HashAliased reports whether interning has ever stored two distinct
// markings sharing one 64-bit hash — the condition under which
// LookupHash is ambiguous. Detection is exact, not probabilistic: an
// aliasing pair probes through the same table run (same home slot), so
// the later Intern always walks past the earlier entry; grow()
// reinserts from home slots and preserves the property.
func (s *MarkingStore) HashAliased() bool { return s.aliased }

// Intern returns the MarkID of m, interning a copy of the vector if it
// was not present. The second result reports whether the marking is
// new. Interning an already-present marking performs no allocation.
func (s *MarkingStore) Intern(m Marking) (MarkID, bool) {
	return s.InternHashed(m, HashMarking(m))
}

// InternHashed is Intern with a caller-precomputed HashMarking value —
// the batched exploration pipeline hashes each successor once on a
// worker and interns it later without rehashing.
func (s *MarkingStore) InternHashed(m Marking, h uint64) (MarkID, bool) {
	return s.InternChild(m, h, NoMark, 0)
}

// InternChild is InternHashed for a successor: m, hashed h, is the
// marking reached by firing transition trans at parent. Every explorer
// interns its successors through it, so a store with a frozen tier
// learns each new state's provenance here and keeps it until the state
// freezes (see FreezeThrough). A parent of NoMark, or one that is not
// an earlier id, freezes the vector verbatim.
func (s *MarkingStore) InternChild(m Marking, h uint64, parent MarkID, trans int32) (MarkID, bool) {
	if len(m) != s.places {
		panic("petri: marking length does not match store")
	}
	slot := probeHash(h) & s.mask
	for ; ; slot = (slot + 1) & s.mask {
		e := s.table[slot]
		if e == 0 {
			break
		}
		id := MarkID(e - 1)
		if s.hashes[id] == h {
			if s.At(id).Equal(m) {
				return id, false
			}
			s.aliased = true
		}
	}
	id := MarkID(len(s.hashes))
	page, off := s.pageOf(int(id))
	if off == 0 {
		s.pages = append(s.pages, make([]int32, s.pageLen(page)*s.places))
	}
	copy(s.pages[page][off*s.places:], m)
	s.hashes = append(s.hashes, h)
	s.table[slot] = uint32(id) + 1
	if s.FreezeEnabled() {
		var p prov
		if parent < id {
			p = prov{gap: uint32(id - parent), trans: trans}
		}
		s.frozen.prov = append(s.frozen.prov, p)
	}
	if len(s.hashes)*4 >= len(s.table)*3 {
		s.grow()
	}
	return id, true
}

// grow doubles the table and reinserts every id using the stored
// hashes; the token pages are untouched. The hash array is reserved up
// to the new table's load limit here, so it is reallocated once per
// doubling instead of regrowing on append.
func (s *MarkingStore) grow() {
	nt := make([]uint32, len(s.table)*2)
	mask := uint32(len(nt) - 1)
	if limit := len(nt) / 4 * 3; cap(s.hashes) < limit {
		s.hashes = append(make([]uint64, 0, limit), s.hashes...)
	}
	for id, h := range s.hashes {
		slot := probeHash(h) & mask
		for nt[slot] != 0 {
			slot = (slot + 1) & mask
		}
		nt[slot] = uint32(id) + 1
	}
	s.table = nt
	s.mask = mask
}

// All iterates over (MarkID, Marking) pairs in interning order. The
// yielded markings are read-only views (see At).
func (s *MarkingStore) All() iter.Seq2[MarkID, Marking] {
	return func(yield func(MarkID, Marking) bool) {
		for id := 0; id < s.Len(); id++ {
			if !yield(MarkID(id), s.At(MarkID(id))) {
				return
			}
		}
	}
}

// Mem is THE store-memory accounting: exact live byte counts at slice
// lengths, independent of append growth policy. Both figures are pure
// functions of the interned marking sequence and the frozen boundary,
// so distributed memory accounting (the per-worker replica-size and
// frozen-store gates in CI) can compare values across processes and
// machines byte-for-byte. Every other store-size figure in the tree
// (dist.WorkerMem.StoreBytes, the server's worker-memory gauge, search
// stats) derives from this one method.
func (s *MarkingStore) Mem() StoreMem {
	m := StoreMem{
		HotBytes: int64(s.Len()-s.frozenEnd)*int64(s.places)*TokenBytes + int64(len(s.hashes))*8 + int64(len(s.table))*4,
	}
	if s.frozen != nil {
		m.HotBytes += int64(len(s.frozen.offs))*8 + int64(len(s.frozen.prov))*8
		m.FrozenBytes = s.frozen.size
	}
	return m
}
