package core

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"repro/internal/sched"
)

// The synthesis cache memoizes full pipeline runs, content-addressed by
// a hash of the FlowC source, the netlist source and the semantically
// relevant options. Synthesis is a pure function of those inputs (every
// search is deterministic), so a hit can return the stored Result
// directly; repeated synthesis of the same app becomes a hash plus a
// map lookup. Cached Results are shared between callers and must be
// treated as read-only.
//
// Only options whose effect on the output can be fingerprinted are
// cacheable: a custom sched.Termination or sched.ECSOrder is an opaque
// interface value (its Name alone does not capture its parameters), so
// calls carrying one bypass the cache entirely. Options.Workers and
// Sched.Freeze are deliberately not part of the key — any number of
// pool workers and a frozen store alike produce byte-identical Results,
// so a nil Sched and one that differs from it only in Freeze share an
// entry.

// cacheLimit bounds the number of retained entries; eviction is FIFO in
// insertion order, which is enough for the repeat-synthesis workloads
// the cache targets.
const cacheLimit = 1024

type resultCache struct {
	mu    sync.Mutex
	m     map[[32]byte]*Result
	order [][32]byte
	hits  int64
	miss  int64
}

var synthCache = &resultCache{m: map[[32]byte]*Result{}}

func (c *resultCache) get(key [32]byte) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.miss++
	}
	return r, ok
}

func (c *resultCache) put(key [32]byte, r *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return
	}
	for len(c.m) >= cacheLimit {
		old := c.order[0]
		c.order = c.order[1:]
		delete(c.m, old)
	}
	c.m[key] = r
	c.order = append(c.order, key)
}

// CacheStats reports synthesis-cache effectiveness.
type CacheStats struct {
	Hits, Misses int64
	Entries      int
}

// Stats returns a snapshot of the synthesis cache counters.
func Stats() CacheStats {
	synthCache.mu.Lock()
	defer synthCache.mu.Unlock()
	return CacheStats{Hits: synthCache.hits, Misses: synthCache.miss, Entries: len(synthCache.m)}
}

// ResetCache drops every cached Result and zeroes the counters. Intended
// for tests and benchmarks that need cold-cache behaviour.
func ResetCache() {
	synthCache.mu.Lock()
	defer synthCache.mu.Unlock()
	synthCache.m = map[[32]byte]*Result{}
	synthCache.order = nil
	synthCache.hits = 0
	synthCache.miss = 0
}

// cacheKey fingerprints one synthesis call. cacheable is false when the
// options carry state the key cannot capture (custom Term/Order
// implementations) or when the caller opted out.
func cacheKey(flowcSrc, specSrc string, opt *Options) (key [32]byte, cacheable bool) {
	if opt.DisableCache {
		return key, false
	}
	if opt.Sched != nil && (opt.Sched.Term != nil || opt.Sched.Order != nil) {
		return key, false
	}
	h := sha256.New()
	writeStr := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeInt := func(v int64) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(v))
		h.Write(n[:])
	}
	writeBool := func(b bool) {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	writeStr(flowcSrc)
	writeStr(specSrc)
	so := opt.Sched
	if so == nil {
		so = &sched.Options{}
	}
	// The state budget changes what a search can return (ErrBudget vs a
	// schedule), so it discriminates entries.
	writeBool(so.MultiSource)
	writeInt(int64(so.MaxNodes))
	writeInt(int64(so.Engine))
	writeBool(so.NoFallback)
	copy(key[:], h.Sum(nil))
	return key, true
}
