package petri

import "sync"

// Level-synchronous parallel frontier. Both bounded reachability
// (Net.Explore) and the scheduler's marking-graph engine are BFS loops
// whose serial form interleaves three jobs per edge: fire the
// transition, deduplicate the successor marking, and record the edge
// under a deterministic state numbering. RunFrontier splits one BFS
// level into two phases so the expensive part scales with cores while
// the numbering stays byte-identical to the serial loop:
//
//	A (parallel over frontier chunks): fire + prune + hash each
//	  successor and probe the store read-only (LookupHashed). A hit —
//	  a marking interned before this level — is buffered as its bare
//	  MarkID; only a miss buffers its token vector, in the worker's
//	  candidate arena. Nothing is interned, so every worker reads the
//	  same store state.
//	C (sequential, cheap): walk the candidates in (parent, emit) order
//	  — which IS the serial discovery order, because chunks are
//	  contiguous — recording hits directly and resolving each miss with
//	  lookup → Admit → InternHashed, so a marking reached several times
//	  within the level gets its MarkID at first discovery. Per edge this
//	  is a few array reads, plus one probe per miss; the O(|marking|)
//	  firing and hashing already happened in A.
//
// The store itself is the only dedup structure: RunFrontier keeps no
// second copy of any vector beyond one level's misses. Because phase C
// numbers states in first-discovery order regardless of how phase A
// was chunked, the resulting MarkIDs, edges and everything derived from
// them are identical for every worker count, including the plain serial
// loop.

// MergeHooks are the sequential hooks of a frontier exploration: they
// run in the deterministic phase-C merge order regardless of how the
// expansion was parallelized (goroutines in RunFrontier, or worker
// processes behind a FrontierRunner), which is what makes state
// numbering byte-identical across every execution strategy.
type MergeHooks struct {
	// BeginState is called for every frontier state in MarkID order,
	// before any of its Edge/Reject calls. May be nil.
	BeginState func(id MarkID)
	// Admit is consulted before a newly discovered marking is assigned
	// a global MarkID; returning false rejects it (surfacing as a
	// Reject with budget=true). May be nil (admit everything).
	Admit func() bool
	// Edge is called for each recorded edge, in the serial discovery
	// order. isNew is true when child was interned by this call, in
	// which case child == store.Len()-1.
	Edge func(parent MarkID, trans int32, child MarkID, isNew bool)
	// Reject is called for emitted-nil successors (budget=false) and
	// Admit-refused ones (budget=true). Returning false aborts the
	// whole exploration; RunFrontier then returns false.
	Reject func(parent MarkID, trans int32, budget bool) bool
	// LevelClosed is called after each level commits — every state
	// below end has had all its edges recorded and will never be
	// expanded again — and runs sequentially, between levels. The
	// frozen-tier explorers use it to FreezeThrough(end); the final
	// call has end == store.Len(). May be nil.
	LevelClosed func(end int)
}

// FrontierHooks supplies the exploration-specific behaviour of a
// RunFrontier run. Expand is called concurrently; the embedded
// MergeHooks are called sequentially from phase C in deterministic
// order.
type FrontierHooks struct {
	// Expand generates the successors of one frontier state. It is
	// called once per state, concurrently across states, with a worker
	// index for scratch-buffer affinity. emit must be called once per
	// outgoing edge attempt, in a deterministic per-state order; the
	// child marking is copied during the call, so a reused scratch
	// buffer may be passed. Emit a nil child for a successor vetoed by
	// the caller (e.g. beyond a token cap): it surfaces as a Reject
	// with budget=false.
	Expand func(worker int, id MarkID, m Marking, emit func(trans int32, child Marking))
	MergeHooks
}

// ExpandSpec is a self-contained, serializable description of how to
// expand one frontier state: which ECSs of the net's partition may
// fire, and the per-place token caps that veto successors. It captures
// everything the in-process explorers' Expand closures know, so a
// worker process holding only the net and the spec reproduces the
// exact emit sequence (ECSs in partition order, members in ascending
// transition order, out-of-cap successors vetoed).
type ExpandSpec struct {
	// Mask is the fireable-ECS bitset over the net's ECSPartition:
	// enabled ECSs outside the mask are not fired (source exclusion,
	// single-source filtering).
	Mask []uint64
	// Caps holds the per-place token cap; a successor marking any
	// place beyond its cap is vetoed. A negative cap means unbounded.
	Caps []int
}

// Veto reports whether the marking exceeds the spec's place caps.
func (s *ExpandSpec) Veto(m Marking) bool {
	for i, v := range m {
		if c := s.Caps[i]; c >= 0 && v > c {
			return true
		}
	}
	return false
}

// FrontierRunner abstracts who performs the phase-A expansion of a
// level-synchronous frontier exploration. The in-process RunFrontier
// fans expansion out over goroutines; a distributed runner (package
// internal/dist) ships the net and spec to worker processes owning
// hash ranges of the marking space — each holding only its owned
// shards, fed by VecDelta batches — and feeds their candidate streams
// through the same sequential merge, pipelined so workers expand one
// level ahead of the merge and new candidates resolve by shipped
// marking hash (LookupHash) instead of a coordinator re-fire.
// Implementations must invoke the
// MergeHooks in exactly the serial discovery order (states ascending,
// emit order within a state), so results are byte-identical to the
// serial loop. The returned bool is false when a Reject hook aborted
// the run; a non-nil error reports an infrastructure failure (a worker
// died, the protocol broke) rather than an exploration outcome.
type FrontierRunner interface {
	RunFrontier(n *Net, store *MarkingStore, spec ExpandSpec, hooks MergeHooks) (bool, error)
}

// frontierCand is one edge attempt buffered between phases A and C.
type frontierCand struct {
	parent uint32
	trans  int32
	child  MarkID // phase-A hit; NoMark for a miss or a veto
	off    int32  // miss: child vector offset in the worker's arena; -1: vetoed by Expand
	hash   uint64 // miss: HashMarking of the child
}

type frontierWorker struct {
	cands []frontierCand
	vecs  []int
}

// RunFrontier explores breadth-first from the states already interned
// in store (the first frontier is [0, store.Len())), appending every
// admitted successor to store under the deterministic numbering
// described above. It returns false if a Reject hook aborted the run.
// workers <= 1 still runs the phased pipeline, with identical results.
func RunFrontier(store *MarkingStore, workers int, hooks FrontierHooks) bool {
	if workers < 1 {
		workers = 1
	}
	places := store.Places()
	ws := make([]frontierWorker, workers)

	for levelStart := 0; levelStart < store.Len(); {
		levelEnd := store.Len()
		n := levelEnd - levelStart
		act := min(workers, n)

		// Phase A: expand frontier chunks in parallel against the
		// read-only store.
		var wg sync.WaitGroup
		for w := 0; w < act; w++ {
			fw := &ws[w]
			fw.cands = fw.cands[:0]
			fw.vecs = fw.vecs[:0]
			lo := levelStart + w*n/act
			hi := levelStart + (w+1)*n/act
			wg.Add(1)
			go func(w, lo, hi int, fw *frontierWorker) {
				defer wg.Done()
				parent := uint32(0)
				emit := func(trans int32, child Marking) {
					c := frontierCand{parent: parent, trans: trans, child: NoMark, off: -1}
					if child != nil {
						h := HashMarking(child)
						if id, ok := store.LookupHashed(child, h); ok {
							c.child = id
						} else {
							c.off, c.hash = int32(len(fw.vecs)), h
							fw.vecs = append(fw.vecs, child...)
						}
					}
					fw.cands = append(fw.cands, c)
				}
				for id := lo; id < hi; id++ {
					parent = uint32(id)
					hooks.Expand(w, MarkID(id), store.At(MarkID(id)), emit)
				}
			}(w, lo, hi, fw)
		}
		wg.Wait()

		// Phase C: sequential merge in serial discovery order.
		next := MarkID(levelStart)
		begin := func(through MarkID) {
			if hooks.BeginState == nil {
				next = through + 1
				return
			}
			for ; next <= through; next++ {
				hooks.BeginState(next)
			}
		}
		for w := range ws[:act] {
			fw := &ws[w]
			for i := range fw.cands {
				c := &fw.cands[i]
				parent := MarkID(c.parent)
				begin(parent)
				switch {
				case c.child != NoMark:
					hooks.Edge(parent, c.trans, c.child, false)
				case c.off < 0:
					if !hooks.Reject(parent, c.trans, false) {
						return false
					}
				default:
					v := Marking(fw.vecs[c.off : int(c.off)+places])
					if g, ok := store.LookupHashed(v, c.hash); ok {
						hooks.Edge(parent, c.trans, g, false)
						continue
					}
					if hooks.Admit != nil && !hooks.Admit() {
						if !hooks.Reject(parent, c.trans, true) {
							return false
						}
						continue
					}
					g, _ := store.InternHashed(v, c.hash)
					hooks.Edge(parent, c.trans, g, true)
				}
			}
		}
		begin(MarkID(levelEnd - 1))
		if hooks.LevelClosed != nil {
			hooks.LevelClosed(levelEnd)
		}
		levelStart = levelEnd
	}
	return true
}
