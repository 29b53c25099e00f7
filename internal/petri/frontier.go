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
// Drive owns everything the explorers share: the MarkingStore, the
// enabled-ECS bitsets and expansion of an ExpandSpec. The caller's
// FiringTable fires every transition. Drive has two modes:
//
//	inline: expand one state, then merge each of its edges at once.
//	  The merge fires into one scratch marking, vetoes it, hashes it
//	  and walks its probe run in the store once. A known successor is
//	  an edge. A new one goes to Admit, and an admitted one is interned
//	  at the empty slot that ended the walk, then becomes an edge. The
//	  veto checks only the places the transition adds tokens to, and
//	  the hash is the parent's plus the transition's constant
//	  increment, so neither pass scans the marking.
//	  No goroutines and no candidate buffers. The store starts narrow,
//	  each count a field of the bits its cap allows in a packed row
//	  that Drive lays out once from spec.Caps, the P-semiflow bounds of
//	  the places without a cap and the initial marking (see
//	  MarkingStore), and the merge runs on rows: it fires the
//	  parent's row into a row scratch field by field, checking each
//	  rising count against its cap (a veto) and then its field's max,
//	  probes with a memory compare, copies the row in and derives the
//	  enabled set by reading fields. The int32 merge takes over for the
//	  root, a successor with a count past its field (whose intern widens
//	  the store) and every state of a store that has widened.
//	  A state's enabled set is derived from its parent's when the
//	  state is interned and read only when it is expanded, so the
//	  driver keeps the sets of a window of states: the interned ones
//	  not yet expanded, plus those expanded since the window last
//	  dropped its expanded prefix, which it does once that prefix is
//	  half the window. Its memory tracks the BFS frontier, not the
//	  number of states.
//	runner: a FrontierRunner (the worker processes of internal/dist,
//	  reached only through Net.ExploreDist) expands under the same
//	  ExpandSpec and calls the same MergeHooks.
//
// Dense MarkIDs are assigned only in the merge, in first-discovery
// order, so the numbering, the edges and everything derived from them
// are byte-identical in both modes and for every runner.

// MergeHooks are the sequential hooks of an exploration: they run in
// the deterministic merge order — states ascending, edges in expansion
// order within a state — whichever mode or runner expands, which is
// what makes state numbering byte-identical in both modes.
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
	// ErrTokenOverflow (see Drive). An inline exploration's store
	// gives an unbounded place the bound of its P-semiflows instead
	// where the net has one; that bound lays out rows and vetoes
	// nothing.
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
// Like the inline mode, they intern every admitted successor into
// store (InternHashed).
// The returned bool is false when a Reject hook aborted the run; a
// non-nil error reports an infrastructure failure (a worker died, the
// protocol broke) rather than an exploration outcome.
type FrontierRunner interface {
	RunFrontier(ft *FiringTable, store *MarkingStore, spec ExpandSpec, hooks MergeHooks) (bool, error)
}

// Drive explores ft's net breadth-first from its initial marking under
// spec, whose Mask indexes ft's partition. start is called once with a
// fresh store holding only the root, MarkID 0, and returns the hooks
// that record the exploration; Drive interns every admitted successor
// into that store.
//
// With a nil r the exploration runs inline on the calling goroutine,
// keeping enabled sets only for its frontier, in a store whose rows it
// lays out from spec.Caps and, when spec leaves some place without a
// cap, from the minimal P-semiflows of the transitions spec lets fire
// (see semiflowBounds), which the Farkas procedure of internal/linalg
// computes within a fixed work budget. Otherwise r expands it (only
// Net.ExploreDist passes a runner) into a store four bytes a count
// wide, and a runner failure is returned as the error. Either way the
// hooks run in the same order: BeginState for each state, then its
// Edge and Reject calls.
//
// A successor over the MaxTokens ceiling of a place spec leaves
// unbounded is not a veto: it ends the exploration, which then returns
// false and an error wrapping ErrTokenOverflow that names the place.
//
// The bool is false when a Reject hook aborted the exploration; the
// error reports a runner failure or an overflow.
func Drive(ft *FiringTable, spec ExpandSpec, r FrontierRunner, start func(*MarkingStore) MergeHooks) (bool, error) {
	d := &driver{ft: ft, spec: spec}
	for p := range spec.Caps {
		d.unbounded = d.unbounded || spec.unbounded(p)
	}
	// Only the inline merge writes narrow rows; a runner's workers and
	// coordinator read At views per state. A row's field holds every
	// count the caps admit, and the root's. A place without a cap has
	// the bound of its P-semiflows instead of MaxTokens, where the net
	// has one; the bound is sound, so the store widens (see
	// MarkingStore) only when it passes 255, the most a field holds.
	var limit func(p int) uint32
	if r == nil {
		var bound []uint32
		if d.unbounded {
			bound = semiflowBounds(ft, &spec)
		}
		limit = func(p int) uint32 {
			l := ceiling(spec.Caps[p])
			if bound != nil && spec.unbounded(p) {
				l = bound[p]
			}
			return max(l, uint32(ft.net.Places[p].Initial))
		}
	}
	d.store = newMarkingStoreCap(len(ft.net.Places), 1<<10, limit)
	places := len(ft.net.Places)
	buf := make(Marking, 2*places)
	d.scratch, d.parent = buf[:places:places], buf[places:]
	for p, pl := range ft.net.Places {
		d.parent[p] = int32(pl.Initial)
	}
	d.store.Intern(d.parent)
	d.hooks = start(d.store)
	if reject := d.hooks.Reject; d.unbounded {
		d.hooks.Reject = func(parent MarkID, trans int32, budget bool) bool {
			if !budget {
				d.refire = d.store.Load(d.refire, parent)
				d.refire = ft.Fire(d.refire, d.refire, int(trans))
				if d.overflow = ft.Overflow(&d.spec, d.refire, int(trans)); d.overflow != nil {
					return false
				}
			}
			return reject(parent, trans, budget)
		}
	}
	if r != nil {
		ok, err := r.RunFrontier(ft, d.store, spec, d.hooks)
		return ok, cmp.Or(err, d.overflow)
	}
	return d.runInline(), d.overflow
}

// driver is the state of one Drive call.
type driver struct {
	ft    *FiringTable
	spec  ExpandSpec
	store *MarkingStore
	hooks MergeHooks
	// Inline mode only: bits holds the enabled-ECS sets of the states
	// [base, store.Len()) (see set), each appended by Extend when its
	// state is interned; runInline drops the expanded prefix once it is
	// at least half the window, so bits holds about the BFS frontier.
	// scratch and byteScratch are the firing buffers, one marking and
	// one row long, that every successor of the exploration is fired
	// into, and parent holds the root's counts, which Drive interns
	// from it in either mode, then the decoded counts of a narrow
	// parent whose successor takes the int32 merge.
	bits        []uint64
	base        int
	scratch     Marking
	byteScratch []uint8
	parent      Marking
	// unbounded is set when spec leaves some place unbounded; the
	// Reject hook then tells an overflow from a veto, re-firing into
	// refire, and overflow is the error that ended the exploration.
	unbounded bool
	refire    Marking
	overflow  error
}

// runInline is the inline mode: the store is the BFS queue, each state
// expanded in id order.
func (d *driver) runInline() bool {
	d.bits = make([]uint64, d.ft.stride)
	d.byteScratch = make([]uint8, d.store.rowBytes)
	d.ft.Init(d.bits, d.parent)
	for id := 0; id < d.store.Len(); id++ {
		if done := id - d.base; done > 0 && 2*done >= d.store.Len()-d.base {
			// Copying the unexpanded rest costs no more than the prefix
			// it drops, so each state's set moves O(1) times on average.
			d.bits = d.bits[:copy(d.bits, d.bits[done*d.ft.stride:])]
			d.base = id
		}
		if !d.expand(MarkID(id)) {
			return false
		}
	}
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
	h := d.store.HashAt(id)
	// row views a narrow parent's row; m holds the parent's counts for
	// the int32 merge, decoded on first use.
	var row []uint8
	var m Marking
	switch {
	case !d.store.narrow:
		m = d.store.At(id)
	case id != 0:
		row = d.store.row(int(id))
	default:
		m = d.store.Load(d.parent, id)
	}
	// Only the root can be over a cap: every later state passed a veto.
	full := id == 0 && d.spec.Veto(m)
	ok := true
	// Interning appends to d.bits, possibly moving it; this view of the
	// state's own words stays valid either way.
	ForEachMaskedBit(d.set(id), d.spec.Mask, func(ei int) {
		for _, tid := range d.ft.part[ei].Trans {
			if !ok {
				return
			}
			if row != nil && d.store.narrow {
				switch d.ft.fireBytes(d.byteScratch, row, tid, d.store, d.spec.Caps) {
				case fireVeto:
					ok = d.hooks.Reject(id, int32(tid), false)
					continue
				case fireFits:
					ok = d.mergeBytes(id, h, tid)
					continue
				}
			}
			if m == nil {
				m = d.store.Load(d.parent, id)
			}
			ok = d.merge(id, m, h, tid, full)
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
	child = d.store.insert(d.scratch, h, slot, alias)
	d.ft.Update(d.addSet(), d.set(parent), tid, d.scratch)
	d.hooks.Edge(parent, int32(tid), child, true)
	return true
}

// mergeBytes is merge on a narrow store, for the successor that
// fireBytes wrote into byteScratch, within every cap and its row.
func (d *driver) mergeBytes(parent MarkID, ph uint64, tid int) bool {
	h := d.ft.Hash(ph, tid)
	child, slot, alias := d.store.findBytes(d.byteScratch, h)
	if child != NoMark {
		d.hooks.Edge(parent, int32(tid), child, false)
		return true
	}
	if d.hooks.Admit != nil && !d.hooks.Admit() {
		return d.hooks.Reject(parent, int32(tid), true)
	}
	child = d.store.insertBytes(d.byteScratch, h, slot, alias)
	d.ft.updateBytes(d.addSet(), d.set(parent), tid, d.byteScratch, d.store)
	d.hooks.Edge(parent, int32(tid), child, true)
	return true
}

// set is the enabled-ECS set of state id, which must be in the window
// [d.base, store.Len()).
func (d *driver) set(id MarkID) []uint64 {
	lo := (int(id) - d.base) * d.ft.stride
	return d.bits[lo : lo+d.ft.stride]
}

// addSet extends the window by the enabled-ECS set of the state just
// interned and returns it, for Update or updateBytes to write every
// word of. Extend may move d.bits, so a view of another state's set is
// taken after it.
func (d *driver) addSet() []uint64 {
	end := len(d.bits)
	Extend(&d.bits, d.ft.stride)
	return d.bits[end:]
}
