package server

import (
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"sync"

	"repro/internal/core"
)

// The reply cache memoizes successful synthesis replies, content-addressed
// by a hash of the FlowC text, the netlist and the clamped state budget:
// the only request inputs that change a reply. Synthesis is a pure
// function of them (every search is deterministic), so a hit serves the
// stored reply. An entry holds the reply alone, about 4 KB on the
// service benchmark's corpus apps, and none of the pipeline behind it:
// the Result's ASTs, nets and schedules held about 40 KB more per app,
// pointer-rich heap the collector marked on every cycle.

// cacheLimit bounds the number of retained replies; eviction is FIFO in
// insertion order, which is enough for the repeat-synthesis workloads
// the cache targets.
const cacheLimit = 1024

// reply is the part of a synthesis response that does not change per
// request.
type reply struct {
	System string `json:"system"`
	// Tasks is the manifest: one entry per generated task, in schedule
	// order, mirroring the golden-file MANIFEST contract.
	Tasks []taskInfo `json:"tasks"`
	// Code maps task name to generated C source.
	Code map[string]string `json:"code"`
	// Bounds maps channel name to its statically guaranteed buffer
	// size.
	Bounds map[string]int `json:"bounds"`
}

// newReply renders a Result into a reply. The generated C is passed
// through byte-for-byte: the service contract is that a /v1/synthesize
// response is indistinguishable from the CLI's output files
// (golden-checked by the server smoke test). Names are cloned so that a
// cached reply keeps no slice of the request's netlist text alive.
func newReply(res *core.Result) *reply {
	rep := &reply{
		System: strings.Clone(res.Sys.Name),
		Code:   res.Code,
		Bounds: make(map[string]int, len(res.Sys.Channels)),
	}
	for i, t := range res.Tasks {
		st := res.Schedules[i].Stats
		rep.Tasks = append(rep.Tasks, taskInfo{
			Name:             t.Name,
			Segments:         len(t.Segments),
			ScheduleNodes:    len(res.Schedules[i].Nodes),
			StatesExplored:   st.NodesCreated,
			DistinctMarkings: st.DistinctMarkings,
		})
	}
	for _, ch := range res.Sys.Channels {
		rep.Bounds[strings.Clone(ch.Spec.Name)] = res.Bounds[ch.Place.ID]
	}
	return rep
}

// replyCache is a Server's cache. Its counters are the only ones: they
// feed both a response's cache snapshot and the qss_cache_* series.
type replyCache struct {
	mu     sync.Mutex
	m      map[[32]byte]*reply
	order  [][32]byte
	hits   int64
	misses int64
}

func (c *replyCache) get(key [32]byte) (*reply, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return rep, ok
}

func (c *replyCache) put(key [32]byte, rep *reply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return
	}
	for len(c.m) >= cacheLimit {
		delete(c.m, c.order[0])
		c.order = c.order[1:]
	}
	c.m[key] = rep
	c.order = append(c.order, key)
}

func (c *replyCache) stats() cacheSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheSnapshot{Hits: c.hits, Misses: c.misses, Entries: len(c.m)}
}

// cacheKey fingerprints one request: its two texts, each prefixed by its
// length so no two pairs collide, and the state budget it runs under
// after clamping, which decides whether a search fails at the budget.
func cacheKey(flowcSrc, specSrc string, maxNodes int) [32]byte {
	h := sha256.New()
	var n [8]byte
	for _, s := range []string{flowcSrc, specSrc} {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	binary.LittleEndian.PutUint64(n[:], uint64(maxNodes))
	h.Write(n[:])
	var key [32]byte
	h.Sum(key[:0])
	return key
}
