package dist

import "repro/internal/petri"

// Boundary-parent vector cache for trimmed-replica sessions.
//
// A trimmed worker cannot re-fire a delta whose parent lives in another
// worker's shards, so the coordinator attaches the parent's token
// vector to such records — but a hot boundary parent often parents
// several children owned by the same worker within one level, and
// shipping its vector once is enough. Coordinator and worker therefore
// run the SAME bounded LRU over the SAME record sequence: the
// coordinator's instance (values unused) predicts exactly which parent
// vectors the worker still holds and omits those from the wire; the
// worker's instance stores the vectors it was shipped. Because both
// sides apply identical operations in identical order — insert on
// shipped vector, recency bump on omitted one, owned parents never
// touch the cache — eviction is lockstep and an omitted vector is
// always present on the worker. Capacity bounds worker memory at
// vecCacheCap vectors regardless of exploration size.

// vecCacheCap is the shared capacity; both sides must agree or the
// lockstep-eviction argument above breaks. It is a var only so tests
// can shrink it to force evictions cheaply.
var vecCacheCap = 1024

// vecCache is a doubly-linked LRU keyed by global MarkID.
type vecCache struct {
	cap     int
	entries map[petri.MarkID]*vecEntry
	head    *vecEntry // most recently used
	tail    *vecEntry // least recently used
}

type vecEntry struct {
	id         petri.MarkID
	vec        petri.Marking
	prev, next *vecEntry
}

func newVecCache() *vecCache {
	return &vecCache{cap: vecCacheCap, entries: make(map[petri.MarkID]*vecEntry)}
}

func (c *vecCache) len() int { return len(c.entries) }

// bytes reports the cached vector payload (worker-side memory
// accounting; the coordinator's instance stores no vectors).
func (c *vecCache) bytes() int {
	n := 0
	for _, e := range c.entries {
		n += len(e.vec) * petri.TokenBytes
	}
	return n
}

func (c *vecCache) unlink(e *vecEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *vecCache) pushFront(e *vecEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// hit is the coordinator-side operation, applied once per boundary
// record in record order: a present id is bumped to most-recent and the
// vector is omitted from the wire; an absent one is inserted (evicting
// the least-recent entry at capacity) and the vector is shipped.
func (c *vecCache) hit(id petri.MarkID) bool {
	if e, ok := c.entries[id]; ok {
		c.unlink(e)
		c.pushFront(e)
		return true
	}
	c.insert(id, nil)
	return false
}

// insert is the worker-side operation for a record that arrived with a
// vector (and the insertion half of the coordinator's hit): store it as
// most-recent, evicting at capacity.
func (c *vecCache) insert(id petri.MarkID, vec petri.Marking) {
	if e, ok := c.entries[id]; ok {
		// A re-shipped vector (evicted coordinator-side but somehow
		// still held here) cannot happen in lockstep, but stay sane.
		e.vec = vec
		c.unlink(e)
		c.pushFront(e)
		return
	}
	if len(c.entries) >= c.cap {
		lru := c.tail
		c.unlink(lru)
		delete(c.entries, lru.id)
	}
	e := &vecEntry{id: id, vec: vec}
	c.entries[id] = e
	c.pushFront(e)
}

// get is the worker-side operation for a record that arrived without a
// vector for a parent this worker does not own: the lockstep argument
// guarantees presence, so a miss is a protocol error the caller turns
// into a session failure. The hit is bumped to most-recent, mirroring
// the coordinator's hit().
func (c *vecCache) get(id petri.MarkID) (petri.Marking, bool) {
	e, ok := c.entries[id]
	if !ok {
		return nil, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.vec, true
}
