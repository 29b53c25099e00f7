package petri

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sync"
)

// Frozen-level tier of the MarkingStore. A level-synchronous BFS never
// expands a state twice: once a level is fully merged, its token
// vectors are touched only by dedup probes (hash collisions), schedule
// extraction and diagnostics. Keeping them hot forever makes the arena
// the scaling wall of large explorations. FreezeThrough evicts the
// vectors of closed levels into an append-only, delta-compressed
// segment file — one record per state, holding either the verbatim
// vector (roots, or states interned without a nameable parent) or
// just (parent-id gap, transition): the child vector is the parent's
// fired through the search's FiringTable, the same reconstruction
// insight the dist wire format exploits. The store records that
// provenance itself when a successor is interned (InternChild) and
// keeps it only until the state freezes. Hot memory for a frozen state
// is its hash (8B), probe-table slot (4B) and segment offset (8B) —
// independent of the number of places.
//
// Reads go through At unchanged: a frozen id is thawed on demand by
// walking the parent chain down to a hot state, a cached vector or a
// verbatim record, then replaying the firings forward. A
// small FIFO-evicted cache of thawed vectors (plus every
// thawCacheStride-th ancestor of a long walk) keeps repeated probes of
// the same cold region cheap. Thawed views are ordinary heap slices:
// like arena views they stay valid for as long as the caller holds
// them, even after cache eviction.
//
// Freezing happens strictly after dense MarkID assignment, so state
// numbering — and everything derived from it — is byte-identical with
// and without the tier.

// prov is the provenance of one unfrozen state for delta encoding:
// its vector is the vector gap ids below it plus the token deltas of
// trans. gap 0 stores the vector verbatim instead — roots, and states
// whose parent the interning caller could not name as an earlier id.
type prov struct {
	gap   uint32
	trans int32
}

// StoreMem is the unified store-memory accounting: exact live byte
// counts, pure functions of the interned marking sequence and the
// frozen boundary, so values compare byte-for-byte across processes
// and machines (the property CI's memory gates rely on).
type StoreMem struct {
	// HotBytes is everything resident: the hot token arena, all hashes,
	// the probe table, and the frozen tier's per-state segment offsets
	// and the provenance it keeps for unfrozen states.
	HotBytes int64
	// FrozenBytes is the length of the on-disk delta segment.
	FrozenBytes int64
}

// Segment record tags.
const (
	frozenVerbatim = 0 // tag, then places token uvarints
	frozenDelta    = 1 // tag, then uvarint(id-parent), uvarint(trans)
)

// thawCacheStride: a long reconstruction walk caches every so-many-th
// ancestor alongside the requested vector, so later probes into the
// same cold region restart from a nearby cached state instead of the
// chain's verbatim root.
const thawCacheStride = 16

// thawCap bounds the thawed-vector cache, in vectors.
const thawCap = 256

// frozenTier is the cold half of a MarkingStore (see the file comment).
type frozenTier struct {
	end    int // ids [0, end) are frozen; mirrors MarkingStore.frozenEnd
	ft     *FiringTable
	offs   []int64 // offs[id] = segment offset of id's record
	size   int64   // segment length
	f      *os.File
	path   string // retained only when the unlink-after-create failed
	data   []byte // mmap of [0, size); nil = pread fallback
	noMmap bool
	wbuf   []byte // encode buffer reused across FreezeThrough calls
	// prov holds the provenance of the unfrozen ids: prov[i] is id
	// end+i's, recorded at intern and dropped once the id freezes.
	prov []prov
	// failed is set by a segment write failure: the tier stops freezing
	// and recording provenance, and serves the ids it froze before.
	failed bool

	// mu guards the thaw path: At on a frozen id is safe from any
	// number of goroutines (unlike interning and FreezeThrough, which
	// remain caller-serialized mutations).
	mu      sync.Mutex
	cache   map[MarkID]Marking
	fifo    []MarkID
	head    int
	scratch []byte // pread buffer
}

// release closes the tier's OS resources; registered as a finalizer so
// an abandoned store (e.g. the store of a failed dist session) cleans
// up without explicit Close plumbing.
func (fz *frozenTier) release() {
	if fz.data != nil {
		munmapSegment(fz.data)
		fz.data = nil
	}
	fz.f.Close()
	if fz.path != "" {
		os.Remove(fz.path)
	}
}

// FreezeEnabled reports whether the store freezes: EnableFreeze
// succeeded and no segment write has failed since.
func (s *MarkingStore) FreezeEnabled() bool { return s.frozen != nil && !s.frozen.failed }

// FrozenLen returns the number of frozen states (ids [0, FrozenLen())
// live in the segment, the rest in the hot arena).
func (s *MarkingStore) FrozenLen() int { return s.frozenEnd }

// EnableFreeze attaches a frozen tier to the store; ft is the
// FiringTable of the net whose markings the store interns, through
// which reconstruction replays firings. Call it before anything
// freezes; states interned before it freeze verbatim. Enabling costs
// one temp file; no state moves until FreezeThrough.
func (s *MarkingStore) EnableFreeze(ft *FiringTable) error {
	if s.frozen != nil {
		return fmt.Errorf("petri: freeze already enabled")
	}
	f, err := os.CreateTemp("", "qss-frozen-*.seg")
	if err != nil {
		return fmt.Errorf("petri: freeze segment: %w", err)
	}
	fz := &frozenTier{
		ft:    ft,
		f:     f,
		prov:  make([]prov, s.Len()),
		cache: map[MarkID]Marking{},
	}
	// Unlink immediately where the OS allows reading an unlinked open
	// file, so a killed process leaks nothing; keep the path (and let
	// the finalizer remove it) elsewhere.
	if os.Remove(f.Name()) != nil {
		fz.path = f.Name()
	}
	runtime.SetFinalizer(fz, (*frozenTier).release)
	s.frozen = fz
	return nil
}

// FreezeThrough evicts states [FrozenLen(), end) from the hot arena
// into the segment, each as a delta off the parent it was interned
// with (InternChild) or verbatim. The call is a mutation like Intern:
// serialize it against interning AND against concurrent readers. end
// is clamped to Len(); an end at or below the current boundary is a
// no-op, so level-commit call sites need no idempotence bookkeeping of
// their own. A store without a working frozen tier ignores the call.
//
// A segment write failure is returned once, and the store then stops
// freezing for good: the rest of the exploration runs all-hot, and the
// ids frozen before the failure stay readable.
//
// Callers must only freeze CLOSED states — states whose outgoing edges
// are fully recorded and that no hot loop still holds a page view of.
// Old views stay valid (a token page wholly below the new boundary is
// released, never mutated), but every later At of a frozen id pays the
// reconstruction walk.
func (s *MarkingStore) FreezeThrough(end int) error {
	fz := s.frozen
	end = min(end, s.Len())
	if !s.FreezeEnabled() || end <= s.frozenEnd {
		return nil
	}
	buf := fz.wbuf[:0]
	for id := s.frozenEnd; id < end; id++ {
		fz.offs = append(fz.offs, fz.size+int64(len(buf)))
		if p := fz.prov[id-s.frozenEnd]; p.gap != 0 && uint(p.trans) < uint(len(fz.ft.trans)) {
			buf = append(buf, frozenDelta)
			buf = binary.AppendUvarint(buf, uint64(p.gap))
			buf = binary.AppendUvarint(buf, uint64(p.trans))
			continue
		}
		buf = append(buf, frozenVerbatim)
		for _, v := range s.hot(id) {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	fz.wbuf = buf[:0]
	if _, err := fz.f.WriteAt(buf, fz.size); err != nil {
		fz.offs = fz.offs[:s.frozenEnd]
		fz.prov, fz.failed = nil, true
		return fmt.Errorf("petri: freeze segment write: %w", err)
	}
	fz.size += int64(len(buf))
	fz.prov = append([]prov(nil), fz.prov[end-s.frozenEnd:]...)
	// Release every token page wholly below the new boundary; a page
	// that still holds hot ids stays until a later call frees it.
	// Outstanding views into a released page stay valid — its contents
	// never change — and the page is collected once the last view is
	// dropped.
	endPage, _ := s.pageOf(end)
	clear(s.pages[:endPage])
	s.frozenEnd = end
	fz.end = end
	fz.remap()
	return nil
}

// remap re-mmaps the grown segment; on the first failure (or on
// platforms without mmap) the tier falls back to pread permanently.
func (fz *frozenTier) remap() {
	if fz.noMmap {
		return
	}
	if fz.data != nil {
		munmapSegment(fz.data)
		fz.data = nil
	}
	data, err := mmapSegment(fz.f, fz.size)
	if err != nil {
		fz.noMmap = true
		return
	}
	fz.data = data
}

// record returns the raw segment record of a frozen id, from the mmap
// when available, via pread otherwise. Callers hold fz.mu (the pread
// scratch buffer is shared).
func (fz *frozenTier) record(id MarkID) []byte {
	off := fz.offs[id]
	end := fz.size
	if int(id)+1 < len(fz.offs) {
		end = fz.offs[id+1]
	}
	if fz.data != nil && end <= int64(len(fz.data)) {
		return fz.data[off:end]
	}
	n := int(end - off)
	if cap(fz.scratch) < n {
		fz.scratch = make([]byte, n)
	}
	b := fz.scratch[:n]
	if _, err := fz.f.ReadAt(b, off); err != nil {
		panic(fmt.Sprintf("petri: frozen segment read at %d: %v", off, err))
	}
	return b
}

// insert adds a thawed vector to the cache, evicting FIFO at capacity.
// Callers hold fz.mu.
func (fz *frozenTier) insert(id MarkID, v Marking) {
	if _, ok := fz.cache[id]; ok {
		return
	}
	if len(fz.cache) >= thawCap {
		old := fz.fifo[fz.head]
		delete(fz.cache, old)
		fz.fifo[fz.head] = id
		fz.head = (fz.head + 1) % thawCap
	} else {
		fz.fifo = append(fz.fifo, id)
	}
	fz.cache[id] = v
}

// thawLink is one delta step of a reconstruction walk.
type thawLink struct {
	id    MarkID
	trans int32
}

// thaw reconstructs a frozen state's vector: walk the provenance chain
// down until a hot state, a cached vector or a verbatim record, then
// replay the firings forward, caching the result (and, on
// long walks, periodic ancestors). Corruption of the segment — which
// the process itself wrote this session — panics like any other store
// invariant violation.
func (fz *frozenTier) thaw(s *MarkingStore, id MarkID) Marking {
	fz.mu.Lock()
	defer fz.mu.Unlock()
	if v, ok := fz.cache[id]; ok {
		return v
	}
	var chain []thawLink
	var base Marking
	cur := id
	for {
		if int(cur) >= fz.end {
			base = s.hot(int(cur))
			break
		}
		if v, ok := fz.cache[cur]; ok {
			base = v
			break
		}
		rec := fz.record(cur)
		if len(rec) == 0 {
			panic(fmt.Sprintf("petri: empty frozen record for state %d", cur))
		}
		if rec[0] == frozenVerbatim {
			v := make(Marking, s.places)
			b := rec[1:]
			for i := range v {
				t, n := binary.Uvarint(b)
				if n <= 0 {
					panic(fmt.Sprintf("petri: corrupt verbatim record for state %d", cur))
				}
				v[i], b = int32(t), b[n:]
			}
			fz.insert(cur, v)
			if cur == id {
				return v
			}
			base = v
			break
		}
		b := rec[1:]
		gap, n := binary.Uvarint(b)
		if n <= 0 || gap == 0 || uint64(cur) < gap {
			panic(fmt.Sprintf("petri: corrupt delta record for state %d", cur))
		}
		trans, n2 := binary.Uvarint(b[n:])
		if n2 <= 0 || trans >= uint64(len(fz.ft.trans)) {
			panic(fmt.Sprintf("petri: corrupt delta record for state %d", cur))
		}
		chain = append(chain, thawLink{id: cur, trans: int32(trans)})
		cur -= MarkID(gap)
	}
	buf := base.Clone()
	for i := len(chain) - 1; i >= 0; i-- {
		buf = fz.ft.Fire(buf, buf, int(chain[i].trans))
		if depth := len(chain) - 1 - i; i == 0 || depth%thawCacheStride == thawCacheStride-1 {
			v := make(Marking, s.places)
			copy(v, buf)
			fz.insert(chain[i].id, v)
			if i == 0 {
				return v
			}
		}
	}
	return buf // unreachable: the i == 0 iteration above always returns
}
