package sched

import (
	"sort"

	"repro/internal/linalg"
	"repro/internal/petri"
)

// OrderContext is the information available to an ECS ordering heuristic
// at one search node. Engines reuse one context across nodes: Fired and
// Path alias engine-owned buffers and are only valid for the duration of
// the Sort call.
type OrderContext struct {
	Net     *petri.Net
	Marking petri.Marking
	Fired   []int // per-transition fire counts on the path from root
	Source  int
	// Path holds the markings on the search path from the root to the
	// current node inclusive (root first); order is what termination
	// lookaheads need, membership is what matters.
	Path []petri.Marking
	// Scratch is a firing buffer orderings may reuse (via FireInto) for
	// lookahead, keeping Sort allocation-free across calls.
	Scratch petri.Marking
}

// ECSOrder sorts the enabled ECSs at a node; the search explores them in
// the returned order, so good orderings find entering points sooner and
// keep schedules small (Section 5.5).
type ECSOrder interface {
	Sort(ctx *OrderContext, enabled []*petri.ECS) []*petri.ECS
}

// NaiveOrder explores ECSs in partition order — the baseline for the
// heuristic ablation benchmarks.
type NaiveOrder struct{}

// Sort implements ECSOrder.
func (NaiveOrder) Sort(_ *OrderContext, enabled []*petri.ECS) []*petri.ECS { return enabled }

// TInvariantOrder implements the heuristic of Section 5.5.2: a promising
// vector derived from the T-invariant base (selected by binate covering
// against the pseudo-enabled-ECS necessary condition of Theorem 5.3)
// steers the search toward short return paths. Ties are broken by the
// three rules of Section 5.5.2: avoid children that trigger the
// termination condition, avoid source transitions, and prefer
// single-transition ECSs.
type TInvariantOrder struct {
	net    *petri.Net
	source int
	term   Termination
	base   []linalg.Vector
	// part caches the net's ECS partition: coverRows needs it at every
	// node and recomputing it rebuilt preset-key strings per transition
	// per node.
	part []*petri.ECS
	// procOf maps transition ID to its process name ("" for environment
	// transitions).
	procOf []string
	// HasBase reports whether the net admits any T-invariant containing
	// the source; when false the paper's necessary condition already
	// rules out a schedule.
	HasBase bool
}

// NewTInvariantOrder computes the T-invariant base of the net and
// prepares the heuristic for the given source transition.
func NewTInvariantOrder(n *petri.Net, source int, term Termination) *TInvariantOrder {
	o := &TInvariantOrder{net: n, source: source, term: term, part: n.ECSPartition()}
	o.base = linalg.TInvariantBasis(n.IncidenceMatrix())
	for _, b := range o.base {
		if b[source] > 0 {
			o.HasBase = true
			break
		}
	}
	o.procOf = make([]string, len(n.Transitions))
	for i, t := range n.Transitions {
		o.procOf[i] = t.Process
	}
	return o
}

// promisingVector selects a candidate invariant (a subset of the base
// summed together) satisfying the necessary condition of Theorem 5.3 at
// the given marking, and returns its transition-count vector. A nil
// result means no guidance is available.
func (o *TInvariantOrder) promisingVector(ctx *OrderContext) linalg.Vector {
	if len(o.base) == 0 {
		return nil
	}
	// Seed: invariants that fire the schedule's source.
	var seed []int
	for i, b := range o.base {
		if b[o.source] > 0 {
			seed = append(seed, i)
		}
	}
	rows := o.coverRows(ctx.Marking)
	sel, ok := linalg.BinateCover(len(o.base), rows, seed)
	if !ok || len(sel) == 0 {
		sel = seed
	}
	if len(sel) == 0 {
		return nil
	}
	pv := make(linalg.Vector, len(o.net.Transitions))
	for _, i := range sel {
		pv = pv.Add(o.base[i])
	}
	// Subtract what already fired on the path: transitions whose quota
	// in the invariant is exhausted stop being promising.
	for t := range pv {
		pv[t] -= ctx.Fired[t]
		if pv[t] < 0 {
			pv[t] = 0
		}
	}
	if pv.IsZero() {
		// The invariant has been fully fired; restart guidance from the
		// plain candidate.
		pv = make(linalg.Vector, len(o.net.Transitions))
		for _, i := range sel {
			pv = pv.Add(o.base[i])
		}
	}
	return pv
}

// coverRows builds the binate covering rows for Theorem 5.3: for every
// pseudo-enabled ECS E at m and every base invariant b such that the
// process of E appears in b but no transition of E does, selecting b
// requires selecting some invariant that does fire E.
func (o *TInvariantOrder) coverRows(m petri.Marking) []linalg.BinateRow {
	var rows []linalg.BinateRow
	for _, E := range o.part {
		if E.IsSourceECS(o.net) {
			continue
		}
		if !o.pseudoEnabled(E, m) {
			continue
		}
		proc := o.procOf[E.Trans[0]]
		if proc == "" {
			continue
		}
		// Invariants that fire some transition of E.
		var pos []int
		for i, b := range o.base {
			for _, t := range E.Trans {
				if b[t] > 0 {
					pos = append(pos, i)
					break
				}
			}
		}
		for i, b := range o.base {
			if containsInt(pos, i) {
				continue
			}
			if o.processAppears(b, proc) {
				rows = append(rows, linalg.BinateRow{Pos: pos, Neg: []int{i}})
			}
		}
	}
	return rows
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// pseudoEnabled reports whether the ECS is pseudo-enabled at m: some
// non-channel predecessor place of its transitions is marked.
func (o *TInvariantOrder) pseudoEnabled(E *petri.ECS, m petri.Marking) bool {
	for _, a := range o.net.Transitions[E.Trans[0]].In {
		p := o.net.Places[a.Place]
		if p.Kind == petri.PlaceInternal && m[a.Place] > 0 {
			return true
		}
	}
	return false
}

func (o *TInvariantOrder) processAppears(b linalg.Vector, proc string) bool {
	for t, v := range b {
		if v > 0 && o.procOf[t] == proc {
			return true
		}
	}
	return false
}

// Sort implements ECSOrder.
func (o *TInvariantOrder) Sort(ctx *OrderContext, enabled []*petri.ECS) []*petri.ECS {
	if len(enabled) <= 1 {
		return enabled
	}
	pv := o.promisingVector(ctx)
	type scored struct {
		e   *petri.ECS
		key [5]int
	}
	items := make([]scored, 0, len(enabled))
	for _, E := range enabled {
		var k [5]int
		// 0: promising-vector miss (0 = some transition promising).
		k[0] = 1
		if pv != nil {
			for _, t := range E.Trans {
				if pv[t] > 0 {
					k[0] = 0
					break
				}
			}
		}
		// 1: one-step lookahead — does any child trigger termination?
		// ctx.Path already includes the current marking, and Scratch
		// keeps the fired child off the heap.
		for _, t := range E.Trans {
			tr := o.net.Transitions[t]
			if !ctx.Marking.Enabled(tr) {
				continue
			}
			ctx.Scratch = ctx.Marking.FireInto(ctx.Scratch, tr)
			if o.term.Prune(ctx.Scratch, ctx.Path) {
				k[1] = 1
				break
			}
		}
		// 2: source transitions last (fire a source only when nothing
		// else helps).
		if E.IsUncontrollable(o.net) {
			k[2] = 2
		} else if E.IsSourceECS(o.net) {
			k[2] = 1
		}
		// 3: prefer single-transition ECSs.
		if len(E.Trans) > 1 {
			k[3] = 1
		}
		// 4: determinism.
		k[4] = E.Index
		items = append(items, scored{e: E, key: k})
	}
	sort.SliceStable(items, func(i, j int) bool {
		for x := 0; x < len(items[i].key); x++ {
			if items[i].key[x] != items[j].key[x] {
				return items[i].key[x] < items[j].key[x]
			}
		}
		return false
	})
	out := make([]*petri.ECS, len(items))
	for i, it := range items {
		out[i] = it.e
	}
	return out
}
