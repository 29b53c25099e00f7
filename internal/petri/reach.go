package petri

// Bounded-reachability utilities. The full reachability graph of a net
// with source transitions is infinite; these helpers explore a finite
// fragment for validation, testing and diagnostics.

// ReachResult is the outcome of a bounded exploration. Markings are
// hash-consed: Store assigns each distinct visited marking a dense
// MarkID, and Edges is indexed by it. The numbering, edges and flags
// are byte-identical whether Explore runs the search in-process or
// ExploreDist hands it to a runner, frozen or all-hot.
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

// ReachEdge is one edge of the explored reachability graph: 8 bytes,
// the transition's index and the successor's id.
type ReachEdge struct {
	Trans int32
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
	// count (0 = no pruning). Keeps nets with sources finite. Without
	// it, or above MaxTokens, a count past MaxTokens ends the
	// exploration with ErrTokenOverflow.
	MaxTokensPerPlace int
	// FireSources includes source transitions in the exploration when
	// true; otherwise only internal behaviour is explored.
	FireSources bool
	// Freeze moves closed levels to the store's frozen tier (see
	// Drive); the result is the same either way.
	Freeze bool
}

// Explore performs a breadth-first bounded exploration from the initial
// marking on the calling goroutine (Drive's inline mode). Enabled
// transitions are tracked incrementally through a FiringTable (firing a
// transition only re-evaluates the ECSs whose presets it disturbs),
// successors are hash-consed through the result store, and the inner
// loop reuses one scratch vector, so firing a transition allocates only
// when it discovers a new marking. Explore has no error return, so it
// panics when a count of a place MaxTokensPerPlace leaves unbounded
// would exceed MaxTokens (ErrTokenOverflow); ExploreDist with a nil
// runner returns that error.
func (n *Net) Explore(opt ExploreOptions) *ReachResult {
	res, err := n.ExploreDist(nil, opt)
	if err != nil {
		panic(err)
	}
	return res
}

// ExploreDist is Explore with the frontier expansion delegated to r —
// typically a pool of worker processes owning hash ranges of the
// marking space (internal/dist). The runner feeds the same sequential
// merge, so the ReachResult — numbering, edges, flags — is
// byte-identical to Explore's for every worker-process count. The error
// reports an infrastructure failure (worker death, protocol
// corruption), which nothing reruns inline, or a count of an unbounded
// place that would exceed MaxTokens (ErrTokenOverflow); no other
// exploration outcome is an error. A nil r explores inline.
func (n *Net) ExploreDist(r FrontierRunner, opt ExploreOptions) (*ReachResult, error) {
	if opt.MaxMarkings == 0 {
		opt.MaxMarkings = 10000
	}
	ft := NewFiringTable(n, n.ECSPartition())
	var e *reachExplorer
	_, err := Drive(ft, reachSpec(n, ft.part, opt), r, opt.Freeze, func(s *MarkingStore) MergeHooks {
		e = newReachExplorer(s, opt.MaxMarkings)
		return e.mergeHooks()
	})
	if err != nil {
		return nil, err
	}
	e.closeRow()
	return e.res, nil
}

// reachSpec is the expansion rule of a bounded exploration: every ECS
// of part fires except sources (unless FireSources), and a positive
// MaxTokensPerPlace caps every place uniformly.
func reachSpec(n *Net, part []*ECS, opt ExploreOptions) ExpandSpec {
	spec := ExpandSpec{Mask: make([]uint64, (len(part)+63)/64), Caps: make([]int, len(n.Places))}
	for _, E := range part {
		if opt.FireSources || !E.IsSourceECS(n) {
			spec.Mask[E.Index>>6] |= 1 << (uint(E.Index) & 63)
		}
	}
	for i := range spec.Caps {
		spec.Caps[i] = -1
		if opt.MaxTokensPerPlace > 0 {
			spec.Caps[i] = opt.MaxTokensPerPlace
		}
	}
	return spec
}

// newReachExplorer starts the result of one exploration attempt over a
// store holding only the root.
func newReachExplorer(s *MarkingStore, maxMarkings int) *reachExplorer {
	return &reachExplorer{
		max:     maxMarkings,
		res:     &ReachResult{Store: s, Edges: make([][]ReachEdge, 1), Clipped: make([]bool, 1)},
		rowOpen: NoMark,
	}
}

// reachExplorer records one exploration into a ReachResult.
type reachExplorer struct {
	max int // MaxMarkings
	res *ReachResult
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
// merge walks states that way — so a row closes when the parent
// changes, and closeRow closes the last one once the exploration ends.
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

// mergeHooks records the exploration: an edge row per state, and the
// clip flags of states whose successors were vetoed or over budget.
func (e *reachExplorer) mergeHooks() MergeHooks {
	return MergeHooks{
		Admit: func() bool { return e.res.Store.Len() < e.max },
		Edge: func(parent MarkID, trans int32, child MarkID, isNew bool) {
			if isNew {
				// One row header and one flag per state.
				Push(&e.res.Edges, nil)
				Push(&e.res.Clipped, false)
			}
			e.addEdge(parent, ReachEdge{Trans: trans, To: child})
		},
		Reject: func(parent MarkID, trans int32, budget bool) bool {
			e.res.Truncated = true
			e.res.Clipped[parent] = true
			return true
		},
	}
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
