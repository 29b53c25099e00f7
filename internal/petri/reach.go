package petri

import (
	"fmt"
	mathbits "math/bits"
)

// Bounded-reachability utilities. The full reachability graph of a net
// with source transitions is infinite; these helpers explore a finite
// fragment for validation, testing and diagnostics.

// ReachResult is the outcome of a bounded exploration. Markings are
// hash-consed: Store assigns each distinct visited marking a dense
// MarkID, and Edges is indexed by it. The numbering, edges and flags
// are byte-identical for every ExploreOptions.Workers value (including
// the serial path) and for the tracked vs full-scan enablement paths.
type ReachResult struct {
	// Store interns every distinct marking visited; MarkID 0 is the
	// initial marking.
	Store *MarkingStore
	// Edges holds, for each visited marking, the (transition, successor)
	// pairs explored. len(Edges) == Store.Len().
	Edges [][]ReachEdge
	// Clipped marks sources of dropped edges: Clipped[id] is true when
	// some enabled firing at id was not recorded because the successor
	// exceeded MaxTokensPerPlace or the MaxMarkings budget. Such states
	// are incompletely explored, not dead.
	Clipped []bool
	// Truncated is true when the exploration hit a limit before
	// exhausting the state space (equivalently, when any state is
	// Clipped).
	Truncated bool
}

// ReachEdge is one edge of the explored reachability graph.
type ReachEdge struct {
	Trans int
	To    MarkID
}

// Len returns the number of distinct markings retained.
func (r *ReachResult) Len() int { return r.Store.Len() }

// MarkingAt returns the marking behind id (a read-only view).
func (r *ReachResult) MarkingAt(id MarkID) Marking { return r.Store.At(id) }

// ExploreOptions bounds a reachability exploration.
type ExploreOptions struct {
	// MaxMarkings limits the number of distinct markings (default 10000).
	MaxMarkings int
	// MaxTokensPerPlace prunes markings where any place exceeds this
	// count (0 = no pruning). Keeps nets with sources finite.
	MaxTokensPerPlace int
	// FireSources includes source transitions in the exploration when
	// true; otherwise only internal behaviour is explored.
	FireSources bool
	// Workers >= 2 explores each BFS level in parallel (see RunFrontier);
	// 0 or 1 keeps the exploration on the calling goroutine. State
	// numbering and edges are identical for every value.
	Workers int
	// DisableTracker falls back to testing every transition's enabling
	// condition at every state instead of maintaining enabled sets
	// incrementally with an EnabledTracker. Ablation/benchmark knob;
	// results are identical either way.
	DisableTracker bool
	// DistFallback makes ExploreDist rerun the exploration in-process
	// when the distributed runner fails (worker death with recovery
	// exhausted). The result is byte-identical to the distributed one,
	// so a failed pool degrades to local exploration instead of a lost
	// request. Off by default: callers that want to observe the
	// infrastructure failure (tests, pool health probes) see the error.
	DistFallback bool
	// FreezeLevels evicts the token vectors of closed BFS levels from
	// the hot arena into an on-disk delta segment (see MarkingStore
	// freeze.go), trading reconstruction cost on later reads for a hot
	// footprint that no longer grows with the vectors of the explored
	// space. The result is byte-identical either way — freezing happens
	// strictly after dense MarkID assignment. Ignored by the
	// DisableTracker ablation path; if the segment cannot be created or
	// written the exploration silently continues all-hot.
	FreezeLevels bool
}

// Explore performs a breadth-first bounded exploration from the initial
// marking. Enabled transitions are found by an incremental
// EnabledTracker (firing a transition only re-evaluates the ECSs whose
// presets it disturbs), successors are hash-consed through the result
// store, and the inner loop reuses one scratch vector, so firing a
// transition allocates only when it discovers a new marking. With
// Options.Workers >= 2 each BFS level fans out over a level-synchronous
// frontier with deterministic, serial-identical state numbering.
func (n *Net) Explore(opt ExploreOptions) *ReachResult {
	if opt.MaxMarkings == 0 {
		opt.MaxMarkings = 10000
	}
	if opt.DisableTracker {
		return n.exploreFullScan(opt)
	}
	e := newReachExplorer(n, opt)
	if opt.Workers > 1 {
		e.exploreParallel()
	} else {
		e.exploreSerial()
	}
	e.closeRow()
	return e.res
}

// ExploreDist is Explore with the frontier expansion delegated to the
// given runner — typically a pool of worker processes owning hash
// ranges of the marking space (internal/dist). The runner feeds the
// same sequential merge the in-process paths use, so the ReachResult —
// numbering, edges, flags — is byte-identical to Explore's for every
// worker-process count. The error reports an infrastructure failure
// (worker death, protocol corruption), never an exploration outcome —
// unless Options.DistFallback is set, in which case the exploration
// reruns in-process (Workers-governed) and the error is swallowed: the
// determinism contract guarantees the local result matches what the
// pool would have produced.
func (n *Net) ExploreDist(r FrontierRunner, opt ExploreOptions) (*ReachResult, error) {
	if opt.MaxMarkings == 0 {
		opt.MaxMarkings = 10000
	}
	e := newReachExplorer(n, opt)
	if _, err := r.RunFrontier(n, e.res.Store, e.expandSpec(), e.mergeHooks()); err != nil {
		if !opt.DistFallback {
			return nil, err
		}
		// The failed session's hooks may have partially mutated the
		// explorer; rebuild from scratch and run the whole exploration
		// locally.
		e = newReachExplorer(n, opt)
		if opt.Workers > 1 {
			e.exploreParallel()
		} else {
			e.exploreSerial()
		}
	}
	e.closeRow()
	return e.res, nil
}

// newReachExplorer builds the shared state of one exploration: result
// store seeded with the initial marking, incremental tracker, and the
// fireable-ECS mask (source ECSs excluded unless FireSources).
func newReachExplorer(n *Net, opt ExploreOptions) *reachExplorer {
	part := n.ECSPartition()
	tr := NewEnabledTracker(n, part)
	e := &reachExplorer{net: n, opt: opt, part: part, tracker: tr, stride: tr.Stride(), rowOpen: NoMark}
	e.res = &ReachResult{Store: NewMarkingStore(len(n.Places))}
	m0 := n.InitialMarking()
	e.res.Store.Intern(m0)
	e.res.Edges = append(e.res.Edges, nil)
	e.res.Clipped = append(e.res.Clipped, false)
	e.bits = make([]uint64, e.stride)
	tr.Init(e.bits, m0)
	e.fireMask = make([]uint64, e.stride)
	for _, E := range part {
		if !opt.FireSources && E.IsSourceECS(n) {
			continue
		}
		e.fireMask[E.Index>>6] |= 1 << (uint(E.Index) & 63)
	}
	if opt.FreezeLevels {
		if err := e.res.Store.EnableFreeze(FreezeConfig{Deltas: n.TokenDeltas()}); err == nil {
			e.fwin = &FreezeWindow{}
			e.fwin.Append(FreezeProv{Parent: NoMark}) // root: verbatim
		}
	}
	return e
}

// reachExplorer carries the shared state of one Explore call.
type reachExplorer struct {
	net     *Net
	opt     ExploreOptions
	part    []*ECS
	tracker *EnabledTracker
	stride  int
	res     *ReachResult
	// bits is the per-state enabled-ECS arena: state id's set occupies
	// bits[id*stride : (id+1)*stride].
	bits     []uint64
	fireMask []uint64
	// fwin buffers per-state provenance for FreezeThrough when
	// Options.FreezeLevels is active; nil otherwise.
	fwin *FreezeWindow
	// Edges rows are carved out of chunked arenas (see addEdge): the
	// open row of state rowOpen is edgeChunk[rowLo:].
	edgeChunk []ReachEdge
	rowLo     int
	rowOpen   MarkID
}

// Edge arena chunks start at edgeChunkMin edges and double up to
// edgeChunkMax (64 KiB of edges).
const (
	edgeChunkMin = 64
	edgeChunkMax = 4096
)

// addEdge appends one edge to parent's Edges row without a per-state
// allocation: rows are capped subslices (a[lo:hi:hi]) of chunked edge
// arenas, so a caller appending to a row copies instead of overwriting
// a neighbour. Edges arrive grouped by parent in ascending order — the
// serial loop and the phase-C merge both walk states that way — so a
// row closes when the parent changes, and closeRow closes the last one
// once the exploration ends.
func (e *reachExplorer) addEdge(parent MarkID, edge ReachEdge) {
	if parent != e.rowOpen {
		e.closeRow()
		e.rowOpen, e.rowLo = parent, len(e.edgeChunk)
	}
	if len(e.edgeChunk) == cap(e.edgeChunk) {
		// Move the open row to a fresh chunk; closed rows keep their
		// views into the old one.
		row := e.edgeChunk[e.rowLo:]
		size := min(max(2*cap(e.edgeChunk), edgeChunkMin), edgeChunkMax)
		e.edgeChunk = append(make([]ReachEdge, 0, max(size, 2*len(row))), row...)
		e.rowLo = 0
	}
	e.edgeChunk = append(e.edgeChunk, edge)
}

// closeRow publishes the open row into ReachResult.Edges.
func (e *reachExplorer) closeRow() {
	if e.rowOpen == NoMark {
		return
	}
	hi := len(e.edgeChunk)
	e.res.Edges[e.rowOpen] = e.edgeChunk[e.rowLo:hi:hi]
	e.rowOpen = NoMark
}

// freezeTo evicts states below end into the store's frozen tier and
// drops their buffered provenance. A write failure permanently reverts
// the exploration to all-hot (already-frozen levels stay readable).
func (e *reachExplorer) freezeTo(end int) {
	if e.fwin == nil {
		return
	}
	if err := e.res.Store.FreezeThrough(end, e.fwin.Prov); err != nil {
		e.fwin = nil
		return
	}
	e.fwin.Drop(end)
}

// overCap reports whether the marking exceeds the per-place token cap.
func (e *reachExplorer) overCap(m Marking) bool {
	if e.opt.MaxTokensPerPlace <= 0 {
		return false
	}
	for _, v := range m {
		if v > e.opt.MaxTokensPerPlace {
			return true
		}
	}
	return false
}

// admitState grows the per-state side tables for a freshly interned id
// and computes its enabled set from the parent's.
func (e *reachExplorer) admitState(parent MarkID, trans int, m Marking) {
	if e.fwin != nil {
		e.fwin.Append(FreezeProv{Parent: parent, Trans: int32(trans)})
	}
	e.res.Edges = append(e.res.Edges, nil)
	e.res.Clipped = append(e.res.Clipped, false)
	base := len(e.bits)
	for i := 0; i < e.stride; i++ {
		e.bits = append(e.bits, 0)
	}
	e.tracker.Update(e.bits[base:base+e.stride], e.bits[int(parent)*e.stride:(int(parent)+1)*e.stride], trans, m)
}

// forEachFireable iterates the fireable ECSs of a state's enabled set
// in partition order — the serial and parallel paths share it so their
// edge order is identical by construction.
func (e *reachExplorer) forEachFireable(set []uint64, fn func(E *ECS)) {
	for w := 0; w < e.stride; w++ {
		x := set[w] & e.fireMask[w]
		for x != 0 {
			b := mathbits.TrailingZeros64(x)
			x &= x - 1
			fn(e.part[w*64+b])
		}
	}
}

func (e *reachExplorer) exploreSerial() {
	var scratch Marking
	parentBits := make([]uint64, e.stride)
	levelEnd := e.res.Store.Len()
	for qi := MarkID(0); int(qi) < e.res.Store.Len(); qi++ {
		// The serial queue crosses a BFS level boundary exactly when qi
		// reaches the store length observed at the previous boundary:
		// every state below it is now fully expanded, i.e. closed.
		if int(qi) == levelEnd {
			e.freezeTo(levelEnd)
			levelEnd = e.res.Store.Len()
		}
		m := e.res.Store.At(qi)
		// admitState below appends to (and may move) e.bits; iterate a
		// stable copy of this state's words.
		copy(parentBits, e.bits[int(qi)*e.stride:(int(qi)+1)*e.stride])
		e.forEachFireable(parentBits, func(E *ECS) {
			for _, tid := range E.Trans {
				scratch = m.FireInto(scratch, e.net.Transitions[tid])
				if e.overCap(scratch) {
					e.res.Truncated = true
					e.res.Clipped[qi] = true
					continue
				}
				id, ok := e.res.Store.Lookup(scratch)
				if !ok {
					if e.res.Store.Len() >= e.opt.MaxMarkings {
						e.res.Truncated = true
						e.res.Clipped[qi] = true
						continue
					}
					id, _ = e.res.Store.Intern(scratch)
					e.admitState(qi, tid, scratch)
				}
				e.addEdge(qi, ReachEdge{Trans: tid, To: id})
			}
		})
	}
	e.freezeTo(e.res.Store.Len())
}

func (e *reachExplorer) exploreParallel() {
	scratch := make([]Marking, e.opt.Workers)
	RunFrontier(e.res.Store, e.opt.Workers, FrontierHooks{
		Expand: func(worker int, id MarkID, m Marking, emit func(int32, Marking)) {
			e.forEachFireable(e.bits[int(id)*e.stride:(int(id)+1)*e.stride], func(E *ECS) {
				for _, tid := range E.Trans {
					scratch[worker] = m.FireInto(scratch[worker], e.net.Transitions[tid])
					if e.overCap(scratch[worker]) {
						emit(int32(tid), nil)
						continue
					}
					emit(int32(tid), scratch[worker])
				}
			})
		},
		MergeHooks: e.mergeHooks(),
	})
}

// expandSpec captures this exploration's expansion rule for a worker
// process: the fireable mask plus the uniform token cap as a per-place
// caps vector. A worker expanding under the spec emits exactly the
// sequence the serial loop fires.
func (e *reachExplorer) expandSpec() ExpandSpec {
	caps := make([]int, len(e.net.Places))
	for i := range caps {
		if e.opt.MaxTokensPerPlace > 0 {
			caps[i] = e.opt.MaxTokensPerPlace
		} else {
			caps[i] = -1
		}
	}
	return ExpandSpec{Mask: e.fireMask, Caps: caps}
}

// mergeHooks returns the sequential phase-C hooks shared by the
// in-process parallel path and the distributed runner — one definition,
// so the two cannot drift apart.
func (e *reachExplorer) mergeHooks() MergeHooks {
	return MergeHooks{
		Admit: func() bool { return e.res.Store.Len() < e.opt.MaxMarkings },
		Edge: func(parent MarkID, trans int32, child MarkID, isNew bool) {
			if isNew {
				e.admitState(parent, int(trans), e.res.Store.At(child))
			}
			e.addEdge(parent, ReachEdge{Trans: int(trans), To: child})
		},
		Reject: func(parent MarkID, trans int32, budget bool) bool {
			e.res.Truncated = true
			e.res.Clipped[parent] = true
			return true
		},
		LevelClosed: e.levelClosed(),
	}
}

// levelClosed returns the level-commit freeze hook, or nil when
// freezing is off (so runners skip the call entirely).
func (e *reachExplorer) levelClosed() func(int) {
	if e.fwin == nil {
		return nil
	}
	return e.freezeTo
}

// exploreFullScan is the pre-tracker loop: every transition's enabling
// condition is tested at every state. Kept as the ablation baseline for
// the incremental tracker (ExploreOptions.DisableTracker).
func (n *Net) exploreFullScan(opt ExploreOptions) *ReachResult {
	res := &ReachResult{Store: NewMarkingStore(len(n.Places))}
	m0 := n.InitialMarking()
	res.Store.Intern(m0)
	res.Edges = append(res.Edges, nil)
	res.Clipped = append(res.Clipped, false)
	// Full-scan edge order follows the ECS partition like the tracked
	// paths, so all three produce byte-identical results.
	part := n.ECSPartition()
	var fireable []*ECS
	for _, E := range part {
		if !opt.FireSources && E.IsSourceECS(n) {
			continue
		}
		fireable = append(fireable, E)
	}
	var scratch Marking
	for qi := MarkID(0); int(qi) < res.Store.Len(); qi++ {
		m := res.Store.At(qi)
		for _, E := range fireable {
			if !E.Enabled(n, m) {
				continue
			}
			for _, tid := range E.Trans {
				scratch = m.FireInto(scratch, n.Transitions[tid])
				if opt.MaxTokensPerPlace > 0 {
					over := false
					for _, v := range scratch {
						if v > opt.MaxTokensPerPlace {
							over = true
							break
						}
					}
					if over {
						res.Truncated = true
						res.Clipped[qi] = true
						continue
					}
				}
				id, ok := res.Store.Lookup(scratch)
				if !ok {
					if res.Store.Len() >= opt.MaxMarkings {
						res.Truncated = true
						res.Clipped[qi] = true
						continue
					}
					id, _ = res.Store.Intern(scratch)
					res.Edges = append(res.Edges, nil)
					res.Clipped = append(res.Clipped, false)
				}
				res.Edges[qi] = append(res.Edges[qi], ReachEdge{Trans: tid, To: id})
			}
		}
	}
	return res
}

// DeadlockMarkings returns the IDs of visited markings with no explored
// outgoing edge (source firings excluded unless FireSources was set),
// in ascending MarkID order. States whose exploration was clipped by a
// limit are skipped — an unrecorded successor is not a deadlock.
func (r *ReachResult) DeadlockMarkings() []MarkID {
	var out []MarkID
	for id, edges := range r.Edges {
		if len(edges) == 0 && !r.Clipped[id] {
			out = append(out, MarkID(id))
		}
	}
	return out
}

// CoEnabled reports whether the two transitions are simultaneously
// enabled in any marking visited by the exploration. This is the exact
// (but bounded) version of the structural uniqueness test.
func (n *Net) CoEnabled(r *ReachResult, a, b int) (bool, error) {
	if a < 0 || a >= len(n.Transitions) || b < 0 || b >= len(n.Transitions) {
		return false, fmt.Errorf("petri: transition index out of range (%d, %d)", a, b)
	}
	ta, tb := n.Transitions[a], n.Transitions[b]
	for _, m := range r.Store.All() {
		if m.Enabled(ta) && m.Enabled(tb) {
			return true, nil
		}
	}
	return false, nil
}
