package petri

import "math/bits"

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
// Token vectors live in fixed pages, allocated once and never moved or
// rewritten: each marking's tokens are copied in exactly once, at
// intern. Page sizes double from a small first page up to a fixed byte
// cap of TokenBytes-wide counts, so a 100-state search stays small and
// a large exploration allocates each token byte about once.
//
// A page holds a count in one of two encodings. NewMarkingStore's pages
// hold a Marking's int32 counts, and an At view points straight into
// its page. The store of an inline exploration (Drive without a runner)
// starts narrow: a marking is a packed row whose layout Drive fixes once
// per search from the caps of its ExpandSpec, the bounds the net's
// P-semiflows put on the places without a cap (see semiflowBounds), and
// the initial marking. Place p's count is a field of
// min(8, bits.Len(max(limit, initial))) bits, limit being p's cap or
// its semiflow bound; no field straddles a byte, and a place capped at
// 0 with no initial token takes no bits. The counts a schedule search
// keeps are tiny (every cap of the PFC search is 0 or 1), so a PFC row
// is 5 bytes where one byte per place would take 41; an exploration
// without caps packs as tightly when semiflows cover its places (a
// state of the 60-place ring net of qssbench's analyze workload is 8
// bytes), and a place no semiflow covers gets a whole byte. The first
// time a narrow store has to intern a count its field cannot hold, it
// widens, once and in place: every live page is decoded into an int32
// page of the same geometry, and the store stays wide. Nothing outside
// the package sees the encoding. At decodes a narrow id into a fresh
// copy, Load decodes into the caller's buffer, and hashes and MarkIDs
// do not depend on it: each sees a count by value. Only Mem does, since
// it counts each vector at the bytes its page holds.

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
// Concurrency: interning mutates the store and must be serialized by
// the caller. Read-only use (At, Load, LookupHashed, Len) is safe from
// any number of goroutines once no more mutations occur — e.g. a
// ReachResult.Store may be read concurrently after Explore returns; the
// store keeps no decode buffer of its own. The schedule-search engines
// keep one private store per search, so the concurrent per-source
// searches of core's worker pool never contend on one.
type MarkingStore struct {
	places int
	// The token vectors, in pages (see pageOf for the layout):
	// bytePages while narrow is set, pages otherwise. Only the live
	// encoding's page list is used.
	pages     [][]int32
	bytePages [][]uint8
	narrow    bool
	// A narrow store's layout (see layRows): place p's count is the
	// field fields[p] of a row of rowBytes bytes.
	fields     []field
	rowBytes   int
	firstShift uint     // page 0 holds 1<<firstShift markings
	capShift   uint     // pages stop doubling at 1<<capShift markings
	hashes     []uint64 // hash per interned marking, reused on growth
	table      []uint32 // open addressing, entry = id+1, 0 = empty
	mask       uint32
	aliased    bool // two distinct interned markings share a 64-bit hash
}

// field is where a narrow row keeps one place's count: the bits of byte
// off from shift up, as many as max has. max is the largest count the
// field holds, 2^width-1; a field of width 0 always reads 0.
type field struct {
	off   int32
	shift uint8
	max   uint8
}

// Page geometry: the first page holds up to 1<<firstPageShift markings
// and later pages double until one would exceed pageCapBytes of
// TokenBytes-wide counts. A narrow store keeps the same ids per page,
// so widening converts one page at a time.
const (
	firstPageShift = 6
	pageCapBytes   = 64 << 10
)

// NewMarkingStore returns an empty store for markings over the given
// number of places, holding TokenBytes per count.
func NewMarkingStore(places int) *MarkingStore {
	return newMarkingStoreCap(places, 1<<10, nil)
}

// newMarkingStoreCap builds a store with an explicit initial table size
// (a power of two). A nil limit gives int32 pages; otherwise the store
// starts narrow, its rows laid out for counts up to limit(p) at place p
// (see layRows). Tests use tiny tables to force probe collisions.
func newMarkingStoreCap(places, tableSize int, limit func(p int) uint32) *MarkingStore {
	if tableSize < 2 || tableSize&(tableSize-1) != 0 {
		panic("petri: marking store table size must be a power of two >= 2")
	}
	capShift := uint(0)
	for (2<<capShift)*max(places, 1)*TokenBytes <= pageCapBytes {
		capShift++
	}
	s := &MarkingStore{
		places:     places,
		firstShift: min(firstPageShift, capShift),
		capShift:   capShift,
		table:      make([]uint32, tableSize),
		mask:       uint32(tableSize - 1),
	}
	if limit != nil {
		s.layRows(limit)
	}
	return s
}

// layRows makes the store narrow, with rows that hold counts up to
// limit(p) at each place p: its field takes min(8, bits.Len(limit(p)))
// bits, so a limit past 255 gets a whole byte and one of 0 no bits.
// Fields are placed widest first, each in the first byte with room for
// it (first-fit decreasing), so none straddles a byte. A row is at
// least one byte, which the fields of width 0 read.
func (s *MarkingStore) layRows(limit func(p int) uint32) {
	s.narrow = true
	s.fields = make([]field, s.places)
	for p := range s.fields {
		w := min(8, bits.Len32(limit(p)))
		s.fields[p].max = uint8(1<<w - 1)
	}
	// used[b] counts the bits of row byte b taken so far. Within one
	// width, a byte that had no room for a field never gets room, so b
	// only moves forward.
	used := make([]uint8, 0, 64)
	for w := 8; w > 0; w-- {
		b := 0
		for p, f := range s.fields {
			if bits.Len8(f.max) != w {
				continue
			}
			for b < len(used) && int(used[b])+w > 8 {
				b++
			}
			if b == len(used) {
				used = append(used, 0)
			}
			s.fields[p] = field{off: int32(b), shift: used[b], max: f.max}
			used[b] += uint8(w)
		}
	}
	s.rowBytes = len(used)
	if s.places > 0 {
		s.rowBytes = max(s.rowBytes, 1)
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

// count reads place p's count from a row of a narrow store.
func (s *MarkingStore) count(row []uint8, p int) int {
	f := s.fields[p]
	return int(row[f.off] >> f.shift & f.max)
}

// rowSize returns the bytes a page spends per marking.
func (s *MarkingStore) rowSize() int64 {
	if s.narrow {
		return int64(s.rowBytes)
	}
	return int64(s.places) * TokenBytes
}

// hot returns the page view of an id of a wide store.
func (s *MarkingStore) hot(id int) Marking {
	page, off := s.pageOf(id)
	i := off * s.places
	return Marking(s.pages[page][i : i+s.places : i+s.places])
}

// row returns the row of an id of a narrow store.
func (s *MarkingStore) row(id int) []uint8 {
	page, off := s.pageOf(id)
	i := off * s.rowBytes
	return s.bytePages[page][i : i+s.rowBytes : i+s.rowBytes]
}

// decode writes the counts of a narrow row into dst, which holds one
// count per place.
func (s *MarkingStore) decode(dst Marking, row []uint8) {
	for p, f := range s.fields {
		dst[p] = int32(row[f.off] >> f.shift & f.max)
	}
}

// loadHot copies the counts of an id into dst, which holds one count
// per place, and returns it.
func (s *MarkingStore) loadHot(dst Marking, id int) Marking {
	if s.narrow {
		s.decode(dst, s.row(id))
	} else {
		copy(dst, s.hot(id))
	}
	return dst
}

// maxCounts returns the largest count of each place over the stored
// markings. A narrow store reads rows, and stops reading a place once
// its count reaches its field's max, which no stored count can pass;
// once every place has, it reads no further row. A store whose fields
// the net's bounds fill (every place of a ring net holds its one token
// in some early state) is done after a few rows.
func (s *MarkingStore) maxCounts() []int {
	bounds := make([]int, s.places)
	if !s.narrow {
		for id := range s.Len() {
			for p, v := range s.hot(id) {
				bounds[p] = max(bounds[p], int(v))
			}
		}
		return bounds
	}
	// open holds the places still below their field's max.
	open := make([]int32, 0, s.places)
	for p, f := range s.fields {
		if f.max > 0 {
			open = append(open, int32(p))
		}
	}
	for id := 0; id < s.Len() && len(open) > 0; id++ {
		row := s.row(id)
		for i := 0; i < len(open); {
			p := open[i]
			f := s.fields[p]
			v := row[f.off] >> f.shift & f.max
			bounds[p] = max(bounds[p], int(v))
			if v == f.max {
				open[i] = open[len(open)-1]
				open = open[:len(open)-1]
				continue
			}
			i++
		}
	}
	return bounds
}

// widen converts a narrow store to int32 pages of the same geometry,
// once.
func (s *MarkingStore) widen() {
	s.pages = make([][]int32, len(s.bytePages))
	for k, b := range s.bytePages {
		w := make([]int32, s.pageLen(k)*s.places)
		for i := range s.pageLen(k) {
			s.decode(w[i*s.places:(i+1)*s.places], b[i*s.rowBytes:(i+1)*s.rowBytes])
		}
		s.pages[k] = w
	}
	s.bytePages, s.narrow = nil, false
}

// Len returns the number of distinct markings interned.
func (s *MarkingStore) Len() int { return len(s.hashes) }

// Places returns the token-vector length the store was built for.
func (s *MarkingStore) Places() int { return s.places }

// At returns the interned marking, which callers must not mutate. It
// stays valid across later Intern calls, so it is safe to hold one
// across further interning. An id of a wide store resolves to a view
// into the marking's token page: a page is never written again after
// its markings are interned, and widening only drops the store's
// reference to it. An id of a narrow store is decoded into a fresh
// copy. A reader that visits every state decodes with Load instead.
func (s *MarkingStore) At(id MarkID) Marking {
	if s.narrow {
		return s.loadHot(make(Marking, s.places), int(id))
	}
	return s.hot(int(id))
}

// Load copies the interned marking id into dst, reallocating it only
// when its capacity is short of Places(), and returns it. Unlike At it
// never allocates, so a reader that visits every state passes one
// buffer to each call.
func (s *MarkingStore) Load(dst Marking, id MarkID) Marking {
	if cap(dst) < s.places {
		dst = make(Marking, s.places)
	}
	return s.loadHot(dst[:s.places], int(id))
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

// LookupHashed returns the MarkID of m if it is interned; h must be
// HashMarking(m), which explorers derive from the parent's hash in O(1)
// (see FiringTable). It never allocates.
func (s *MarkingStore) LookupHashed(m Marking, h uint64) (MarkID, bool) {
	id, _, _ := s.find(m, h)
	return id, id != NoMark
}

// find walks m's probe run, h being HashMarking(m). It returns m's id
// if m is interned; otherwise NoMark, the empty slot that ends the run,
// and whether the run passed a different marking with hash h. That slot
// and flag are what insert needs, so a caller that finds m absent
// interns it without probing again, provided nothing interns in
// between.
func (s *MarkingStore) find(m Marking, h uint64) (MarkID, uint32, bool) {
	alias := false
	for slot := probeHash(h) & s.mask; ; slot = (slot + 1) & s.mask {
		e := s.table[slot]
		if e == 0 {
			return NoMark, slot, alias
		}
		id := MarkID(e - 1)
		if s.hashes[id] == h {
			if s.holds(id, m) {
				return id, slot, false
			}
			alias = true
		}
	}
}

// holds reports whether id's vector equals m, reading a narrow row in
// place. A count that its field cannot hold differs from every row.
func (s *MarkingStore) holds(id MarkID, m Marking) bool {
	if !s.narrow {
		return s.hot(int(id)).Equal(m)
	}
	if len(m) != s.places {
		return false
	}
	row := s.row(int(id))
	for p, v := range m {
		if uint32(v) != uint32(s.count(row, p)) {
			return false
		}
	}
	return true
}

// findBytes is find for a narrow store and a row b in its layout: a
// candidate is compared with its row in one memory compare.
func (s *MarkingStore) findBytes(b []uint8, h uint64) (MarkID, uint32, bool) {
	alias := false
	for slot := probeHash(h) & s.mask; ; slot = (slot + 1) & s.mask {
		e := s.table[slot]
		if e == 0 {
			return NoMark, slot, alias
		}
		id := MarkID(e - 1)
		if s.hashes[id] == h {
			if string(s.row(int(id))) == string(b) {
				return id, slot, false
			}
			alias = true
		}
	}
}

// LookupHash resolves a bare 64-bit HashMarking value to the interned
// marking carrying it, without the vector compare LookupHashed performs — the
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
// explorers derive a successor's hash from its parent's (FiringTable)
// and the dist coordinator merges hashes its workers shipped, so
// neither rehashes the vector.
func (s *MarkingStore) InternHashed(m Marking, h uint64) (MarkID, bool) {
	if len(m) != s.places {
		panic("petri: marking length does not match store")
	}
	id, slot, alias := s.find(m, h)
	if id != NoMark {
		return id, false
	}
	return s.insert(m, h, slot, alias), true
}

// insert interns m, hashed h and absent from the store: slot and alias
// are what find returned for m, with no intern since. It returns m's
// new id. A narrow store packs m into the row claim made, and widens
// if a count does not fit its field.
func (s *MarkingStore) insert(m Marking, h uint64, slot uint32, alias bool) MarkID {
	id := s.claim(h, slot, alias)
	if s.narrow && !s.pack(s.row(int(id)), m) {
		s.widen()
	}
	if !s.narrow {
		copy(s.hot(int(id)), m)
	}
	return id
}

// pack writes m into row, a zeroed row of a narrow store, field by
// field. It reports false, with row partly written, at the first count
// that its field cannot hold.
func (s *MarkingStore) pack(row []uint8, m Marking) bool {
	for p, f := range s.fields {
		if uint32(m[p]) > uint32(f.max) {
			return false
		}
		row[f.off] |= uint8(m[p]) << f.shift
	}
	return true
}

// insertBytes is insert for a narrow store and a row b in its layout.
func (s *MarkingStore) insertBytes(b []uint8, h uint64, slot uint32, alias bool) MarkID {
	id := s.claim(h, slot, alias)
	copy(s.row(int(id)), b)
	return id
}

// claim takes the next id for a marking hashed h at the probe slot find
// ended on, and records everything of it but its counts: the hash, the
// table entry, and the page its counts go to.
func (s *MarkingStore) claim(h uint64, slot uint32, alias bool) MarkID {
	s.aliased = s.aliased || alias
	id := MarkID(len(s.hashes))
	if page, off := s.pageOf(int(id)); off == 0 {
		if n := s.pageLen(page); s.narrow {
			s.bytePages = append(s.bytePages, make([]uint8, n*s.rowBytes))
		} else {
			s.pages = append(s.pages, make([]int32, n*s.places))
		}
	}
	s.hashes = append(s.hashes, h)
	s.table[slot] = uint32(id) + 1
	if len(s.hashes)*4 >= len(s.table)*3 {
		s.grow()
	}
	return id
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

// StoreMem is the store-memory accounting of Mem.
type StoreMem struct {
	// HotBytes is everything resident: the token vectors, all hashes
	// and the probe table.
	HotBytes int64
}

// Mem is THE store-memory accounting: exact live byte counts at slice
// lengths, independent of append growth policy, with each vector
// counted at the bytes its page holds (a row in a narrow store). The
// figure is a pure function of the interned marking sequence and the
// encoding and layout the store started in, so distributed memory
// accounting (the per-worker replica-size gates in CI) can
// compare values across processes and machines byte-for-byte. Every
// other store-size figure in the tree (dist.WorkerMem.StoreBytes,
// sched.SearchStats.StoreHotBytes and the server's
// qss_store_hot_bytes gauge built on it) derives from this one method.
func (s *MarkingStore) Mem() StoreMem {
	return StoreMem{
		HotBytes: int64(s.Len())*s.rowSize() + int64(len(s.hashes))*8 + int64(len(s.table))*4,
	}
}
