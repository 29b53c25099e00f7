package petri

// The exploration driver. Bounded reachability (Net.Explore,
// ExploreDist) and the scheduler's marking-graph engine are the same
// level-synchronous BFS: fire every fireable transition of every
// frontier state, deduplicate each successor marking, and record the
// edge under a deterministic state numbering. Drive is that BFS, the
// only one outside internal/dist; the explorers supply MergeHooks that
// record what it finds.
//
// Drive owns everything the explorers share: the MarkingStore
// (with its frozen tier, which records each state's provenance as it
// is interned), the EnabledTracker bitset arena, expansion of an
// ExpandSpec, level-boundary detection and the Strategy's fallback
// rerun. It has two modes:
//
//	inline: expand one state, then merge each of its edges at once —
//	  fire, veto, hash, LookupHashed, Admit, InternChild, Edge. The
//	  veto checks only the places the transition adds tokens to, and
//	  the hash is the parent's plus the transition's constant
//	  increment (FiringTable), so neither pass scans the marking.
//	  No goroutines and no candidate buffers.
//	runner: a FrontierRunner (the worker processes of internal/dist)
//	  expands under the same ExpandSpec and calls the same MergeHooks.
//
// Dense MarkIDs are assigned only in the merge, in first-discovery
// order, so the numbering, the edges and everything derived from them
// are byte-identical in both modes and for every runner.

// MergeHooks are the sequential hooks of an exploration: they run in
// the deterministic merge order — states ascending, edges in expansion
// order within a state — whichever mode or runner expands, which is
// what makes state numbering byte-identical across every execution
// strategy.
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
	// Reject is called for vetoed successors (budget=false) and
	// Admit-refused ones (budget=true). Returning false aborts the
	// whole exploration; the run then reports false.
	Reject func(parent MarkID, trans int32, budget bool) bool
}

// ExpandSpec is a self-contained, serializable description of how to
// expand one frontier state: which ECSs of the net's partition may
// fire, and the per-place token caps that veto successors. A worker
// process holding only the net and the spec reproduces the driver's
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

// FiringTable is what an explorer needs per transition, beyond the
// firing itself, to classify a successor in time proportional to the
// firing rather than to the net. It is built once per exploration from
// the net and the ExpandSpec, and both Drive's inline merge and every
// dist worker use it.
//
//   - Δ(t): HashMarking is additive, so the successor of a marking
//     hashed h under t hashes to h + Δ(t), exactly.
//   - The rise list of t: the capped places t adds tokens to. A
//     successor of a marking within its caps can leave them only
//     there, so checking those places is the whole Veto.
//
// A marking that is itself over a cap (only a root can be: every other
// state passed a veto) takes the full ExpandSpec.Veto instead; see
// Veto's full flag.
type FiringTable struct {
	spec  ExpandSpec
	trans []firingEntry
	rise  []int32 // every transition's rise list, concatenated
}

// firingEntry is one transition's hash increment and rise list
// (rise[lo:hi]).
type firingEntry struct {
	delta  uint64
	lo, hi int32
}

// NewFiringTable builds the table of n's transitions under spec.
func NewFiringTable(n *Net, spec ExpandSpec) FiringTable {
	rises := 0
	for _, t := range n.Transitions {
		for _, a := range t.Out {
			if spec.Caps[a.Place] >= 0 {
				rises++
			}
		}
	}
	f := FiringTable{spec: spec, trans: make([]firingEntry, len(n.Transitions)), rise: make([]int32, 0, rises)}
	for ti, t := range n.Transitions {
		e := &f.trans[ti]
		for _, a := range t.In {
			e.delta -= uint64(a.Weight) * placeWeight(a.Place)
		}
		e.lo = int32(len(f.rise))
		// AddArc and AddArcTP merge parallel arcs, so each place has at
		// most one arc each way.
		for _, a := range t.Out {
			e.delta += uint64(a.Weight) * placeWeight(a.Place)
			if spec.Caps[a.Place] >= 0 && a.Weight > t.Weight(a.Place) {
				f.rise = append(f.rise, int32(a.Place))
			}
		}
		e.hi = int32(len(f.rise))
	}
	return f
}

// Hash returns the HashMarking value of the successor of firing
// transition t at a marking whose HashMarking value is h.
func (f *FiringTable) Hash(h uint64, t int) uint64 { return h + f.trans[t].delta }

// Veto reports whether child, the successor of firing transition t,
// exceeds the spec's caps. Unless full is set, its parent must have
// been within every cap, and only t's rise list is checked; full runs
// the whole ExpandSpec.Veto scan, for the successors of a marking that
// is itself over a cap.
func (f *FiringTable) Veto(child Marking, t int, full bool) bool {
	if full {
		return f.spec.Veto(child)
	}
	e := f.trans[t]
	for _, p := range f.rise[e.lo:e.hi] {
		if child[p] > f.spec.Caps[p] {
			return true
		}
	}
	return false
}

// FrontierRunner abstracts who expands the frontier of a
// level-synchronous exploration in Drive's runner mode. A distributed
// runner (package internal/dist) ships the net and spec to worker
// processes owning hash ranges of the marking space — each holding
// only its owned shards, fed by VecDelta batches — and feeds their
// candidate streams through the sequential merge, pipelined so workers
// expand one level ahead of the merge and new candidates resolve by
// shipped marking hash (LookupHash) instead of a coordinator re-fire.
// Implementations explore from the states already in store (the first
// frontier is [0, store.Len())) and must invoke the MergeHooks in
// exactly the serial discovery order (states ascending, emit order
// within a state), so results are byte-identical to the inline mode.
// Like the inline mode, they intern every admitted successor with
// store.InternChild (naming its parent and transition) and call
// store.FreezeThrough at each level commit with the start of the
// level about to merge, and once more with store.Len() when the
// exploration completes; both are no-ops unless the store freezes.
// The returned bool is false when a Reject hook aborted the run; a
// non-nil error reports an infrastructure failure (a worker died, the
// protocol broke) rather than an exploration outcome.
type FrontierRunner interface {
	RunFrontier(n *Net, store *MarkingStore, spec ExpandSpec, hooks MergeHooks) (bool, error)
}

// Strategy is how an exploration executes: where the frontier
// expands, whether a failed runner reruns inline, and whether closed
// levels freeze. None of it changes what is explored or in what order —
// the result is byte-identical under every strategy — so callers set it
// once and every layer hands it unchanged to Drive. The zero value
// explores inline, all-hot.
type Strategy struct {
	// Runner expands the frontier (the worker processes of
	// internal/dist); nil expands it inline on the calling goroutine.
	Runner FrontierRunner
	// Fallback reruns the exploration inline when Runner fails — worker
	// death with recovery exhausted, protocol corruption. Determinism
	// makes the rerun's result identical to what the runner would have
	// produced, so a failed pool degrades to local exploration instead
	// of a lost request. Off, the runner's error is returned, which is
	// what tests and pool health probes want to observe.
	Fallback bool
	// Freeze evicts the token vectors of closed levels into the store's
	// frozen tier (see MarkingStore.FreezeThrough), trading
	// reconstruction on later reads for a hot footprint that no longer
	// grows with the vectors of the explored space. A runner's workers
	// freeze their replicas exactly when the store it is handed does.
	// If the segment cannot be created or written, the store stops
	// freezing and the exploration silently continues all-hot; levels
	// frozen before a write failure stay readable.
	Freeze bool
}

// Drive explores n breadth-first from its initial marking under spec,
// whose Mask indexes part (n's ECSPartition), executing as st says.
// start is called with a fresh store holding only the root, MarkID 0,
// and returns the hooks that record the exploration; Drive interns
// every admitted successor into that store.
//
// With a nil st.Runner the exploration runs inline on the calling
// goroutine. Otherwise the runner expands it; if it fails and
// st.Fallback is set, Drive calls start again with a new store and
// reruns the exploration inline, and the error is swallowed.
//
// The bool is false when a Reject hook aborted the exploration; the
// error reports a runner failure that was not recovered.
func Drive(n *Net, part []*ECS, spec ExpandSpec, st Strategy, start func(*MarkingStore) MergeHooks) (bool, error) {
	d := &driver{net: n, part: part, spec: spec}
	if st.Runner != nil {
		d.begin(st.Freeze, start)
		ok, err := st.Runner.RunFrontier(n, d.store, spec, d.hooks)
		if err == nil || !st.Fallback {
			return ok, err
		}
	}
	d.begin(st.Freeze, start)
	return d.runInline(), nil
}

// driver is the state of one Drive call.
type driver struct {
	net   *Net
	part  []*ECS
	spec  ExpandSpec
	store *MarkingStore
	hooks MergeHooks
	// Inline mode only: bits is the per-state enabled-ECS arena (state
	// id's set is bits[id*stride : (id+1)*stride]), derived from the
	// parent's set when a state is interned and grown by Grow's rule;
	// scratch is the firing buffer reused across the whole exploration;
	// fires classifies each successor from its parent's hash and the
	// transition.
	tracker *EnabledTracker
	stride  int
	bits    []uint64
	scratch Marking
	fires   FiringTable
}

// begin starts one attempt: a store holding only the root, its frozen
// tier when asked for, and the caller's hooks for that store.
func (d *driver) begin(freeze bool, start func(*MarkingStore) MergeHooks) {
	d.store = NewMarkingStore(len(d.net.Places))
	if freeze {
		// Without a segment file the exploration runs all-hot.
		_ = d.store.EnableFreeze(d.net.TokenDeltas())
	}
	d.store.Intern(d.net.InitialMarking())
	d.hooks = start(d.store)
}

// runInline is the inline mode. The queue crosses a level boundary
// exactly when it reaches the store length observed at the previous
// boundary: every state below it is then fully expanded, i.e. closed,
// and freezes. A segment write failure leaves the store all-hot from
// there on, which changes nothing the exploration computes.
func (d *driver) runInline() bool {
	d.tracker = NewEnabledTracker(d.net, d.part)
	d.fires = NewFiringTable(d.net, d.spec)
	d.stride = d.tracker.Stride()
	d.bits = make([]uint64, d.stride)
	d.tracker.Init(d.bits, d.store.At(0))
	levelEnd := d.store.Len()
	for id := 0; id < d.store.Len(); id++ {
		if id == levelEnd {
			_ = d.store.FreezeThrough(levelEnd)
			levelEnd = d.store.Len()
		}
		if !d.expand(MarkID(id)) {
			return false
		}
	}
	_ = d.store.FreezeThrough(d.store.Len())
	return true
}

// expand fires the fireable enabled ECSs of one state in partition
// order, members in ascending transition order, merging each successor
// before firing the next. It reports false when a Reject hook aborted
// the exploration.
func (d *driver) expand(id MarkID) bool {
	if d.hooks.BeginState != nil {
		d.hooks.BeginState(id)
	}
	m := d.store.At(id)
	h := d.store.HashAt(id)
	// Only the root can be over a cap: every later state passed a veto.
	full := id == 0 && d.spec.Veto(m)
	ok := true
	// Interning appends to d.bits, possibly moving it; this view of the
	// state's own words stays valid either way.
	ForEachMaskedBit(d.bits[int(id)*d.stride:(int(id)+1)*d.stride], d.spec.Mask, func(ei int) {
		for _, tid := range d.part[ei].Trans {
			if ok {
				ok = d.merge(id, m, h, tid, full)
			}
		}
	})
	return ok
}

// merge fires tid at m, the marking of parent (hashed ph), and records
// the successor: a veto, an edge to a known state, a budget rejection,
// or an edge to a newly interned one. full runs the whole cap scan
// (see FiringTable.Veto).
func (d *driver) merge(parent MarkID, m Marking, ph uint64, tid int, full bool) bool {
	d.scratch = m.FireInto(d.scratch, d.net.Transitions[tid])
	if d.fires.Veto(d.scratch, tid, full) {
		return d.hooks.Reject(parent, int32(tid), false)
	}
	h := d.fires.Hash(ph, tid)
	if child, ok := d.store.LookupHashed(d.scratch, h); ok {
		d.hooks.Edge(parent, int32(tid), child, false)
		return true
	}
	if d.hooks.Admit != nil && !d.hooks.Admit() {
		return d.hooks.Reject(parent, int32(tid), true)
	}
	child, _ := d.store.InternChild(d.scratch, h, parent, int32(tid))
	// Update writes every word of the new state's set.
	base := len(d.bits)
	d.bits = Grow(d.bits, d.stride)[:base+d.stride]
	d.tracker.Update(d.bits[base:], d.bits[int(parent)*d.stride:(int(parent)+1)*d.stride], tid, d.scratch)
	d.hooks.Edge(parent, int32(tid), child, true)
	return true
}
