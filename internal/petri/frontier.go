package petri

import (
	"cmp"
	"errors"
)

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
// is interned), the enabled-ECS bitset arena, expansion of an
// ExpandSpec, level-boundary detection and the Strategy's fallback
// rerun. The caller's FiringTable fires every transition. Drive has
// two modes:
//
//	inline: expand one state, then merge each of its edges at once.
//	  The merge fires into one scratch marking, vetoes it, hashes it
//	  and walks its probe run in the store once. A known successor is
//	  an edge. A new one goes to Admit, and an admitted one is interned
//	  at the empty slot that ended the walk, then becomes an edge. The
//	  veto checks only the places the transition adds tokens to, and
//	  the hash is the parent's plus the transition's constant
//	  increment, so neither pass scans the marking.
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
	// place beyond its cap is vetoed. A negative cap, or one above
	// MaxTokens, leaves the place unbounded: its ceiling is MaxTokens,
	// and a successor beyond it ends the exploration with
	// ErrTokenOverflow (see Drive).
	Caps []int
}

// ErrTokenOverflow is wrapped by the error that ends an exploration
// when firing would put more than MaxTokens tokens on a place no cap
// bounds; the error names the place.
var ErrTokenOverflow = errors.New("token count exceeds MaxTokens")

// ceiling is the largest count a place with cap c may hold: c itself,
// or MaxTokens for an unbounded place.
func ceiling(c int) uint32 { return uint32(min(uint(c), MaxTokens)) }

// unbounded reports whether place p has no cap at or below MaxTokens.
func (s *ExpandSpec) unbounded(p int) bool { return uint(s.Caps[p]) > MaxTokens }

// Veto reports whether the marking exceeds the spec's place caps, or
// the MaxTokens ceiling of an unbounded place. Counts compare as
// uint32, so a count that wrapped past MaxTokens exceeds every ceiling:
// a capped place vetoes such a successor instead of storing it.
func (s *ExpandSpec) Veto(m Marking) bool {
	for i, v := range m {
		if uint32(v) > ceiling(s.Caps[i]) {
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
	RunFrontier(ft *FiringTable, store *MarkingStore, spec ExpandSpec, hooks MergeHooks) (bool, error)
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

// Drive explores ft's net breadth-first from its initial marking under
// spec, whose Mask indexes ft's partition, executing as st says.
// start is called with a fresh store holding only the root, MarkID 0,
// and returns the hooks that record the exploration; Drive interns
// every admitted successor into that store.
//
// With a nil st.Runner the exploration runs inline on the calling
// goroutine. Otherwise the runner expands it; if it fails and
// st.Fallback is set, Drive calls start again with a new store and
// reruns the exploration inline, and the error is swallowed.
//
// A successor over the MaxTokens ceiling of a place spec leaves
// unbounded is not a veto: it ends the exploration, which then returns
// false and an error wrapping ErrTokenOverflow that names the place.
//
// The bool is false when a Reject hook aborted the exploration; the
// error reports a runner failure that was not recovered, or an
// overflow.
func Drive(ft *FiringTable, spec ExpandSpec, st Strategy, start func(*MarkingStore) MergeHooks) (bool, error) {
	d := &driver{ft: ft, spec: spec}
	for p := range spec.Caps {
		d.unbounded = d.unbounded || spec.unbounded(p)
	}
	if st.Runner != nil {
		d.begin(st.Freeze, start)
		ok, err := st.Runner.RunFrontier(ft, d.store, spec, d.hooks)
		if err == nil || !st.Fallback {
			return ok, cmp.Or(err, d.overflow)
		}
	}
	d.begin(st.Freeze, start)
	return d.runInline(), d.overflow
}

// driver is the state of one Drive call.
type driver struct {
	ft    *FiringTable
	spec  ExpandSpec
	store *MarkingStore
	hooks MergeHooks
	// Inline mode only: bits is the per-state enabled-ECS arena (state
	// id's set is bits[id*stride : (id+1)*stride]), derived from the
	// parent's set when a state is interned and grown by Extend;
	// scratch is the firing buffer, one marking long, that every
	// successor of the exploration is fired into.
	bits    []uint64
	scratch Marking
	// unbounded is set when spec leaves some place unbounded; the
	// Reject hook then tells an overflow from a veto, re-firing into
	// refire, and overflow is the error that ended the attempt.
	unbounded bool
	refire    Marking
	overflow  error
}

// begin starts one attempt: a store holding only the root, its frozen
// tier when asked for, and the caller's hooks for that store.
func (d *driver) begin(freeze bool, start func(*MarkingStore) MergeHooks) {
	d.store = NewMarkingStore(len(d.ft.net.Places))
	if freeze {
		// Without a segment file the exploration runs all-hot.
		_ = d.store.EnableFreeze(d.ft)
	}
	d.store.Intern(d.ft.net.InitialMarking())
	d.hooks = start(d.store)
	d.overflow = nil
	if reject := d.hooks.Reject; d.unbounded {
		d.hooks.Reject = func(parent MarkID, trans int32, budget bool) bool {
			if !budget {
				d.refire = d.ft.Fire(d.refire, d.store.At(parent), int(trans))
				if d.overflow = d.ft.Overflow(&d.spec, d.refire, int(trans)); d.overflow != nil {
					return false
				}
			}
			return reject(parent, trans, budget)
		}
	}
}

// runInline is the inline mode. The queue crosses a level boundary
// exactly when it reaches the store length observed at the previous
// boundary: every state below it is then fully expanded, i.e. closed,
// and freezes. A segment write failure leaves the store all-hot from
// there on, which changes nothing the exploration computes.
func (d *driver) runInline() bool {
	d.bits = make([]uint64, d.ft.stride)
	d.scratch = make(Marking, d.store.Places())
	d.ft.Init(d.bits, d.store.At(0))
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
	stride := d.ft.stride
	ForEachMaskedBit(d.bits[int(id)*stride:(int(id)+1)*stride], d.spec.Mask, func(ei int) {
		for _, tid := range d.ft.part[ei].Trans {
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
	// scratch has len(m), so Fire fills it in place.
	d.ft.Fire(d.scratch, m, tid)
	if d.ft.Veto(&d.spec, d.scratch, tid, full) {
		return d.hooks.Reject(parent, int32(tid), false)
	}
	h := d.ft.Hash(ph, tid)
	child, slot, alias := d.store.find(d.scratch, h)
	if child != NoMark {
		d.hooks.Edge(parent, int32(tid), child, false)
		return true
	}
	if d.hooks.Admit != nil && !d.hooks.Admit() {
		return d.hooks.Reject(parent, int32(tid), true)
	}
	// Admit interns nothing, so the probe run find ended is still open.
	child = d.store.insert(d.scratch, h, slot, alias, parent, int32(tid))
	// Update writes every word of the new state's set.
	base, stride := len(d.bits), d.ft.stride
	Extend(&d.bits, stride)
	d.ft.Update(d.bits[base:], d.bits[int(parent)*stride:(int(parent)+1)*stride], tid, d.scratch)
	d.hooks.Edge(parent, int32(tid), child, true)
	return true
}
