package petri

import (
	"slices"
	"sort"

	"repro/internal/linalg"
)

// IncidenceMatrix returns C with C[i][j] = F(t_j, p_i) - F(p_i, t_j),
// rows indexed by place, columns by transition.
func (n *Net) IncidenceMatrix() [][]int {
	c := make([][]int, len(n.Places))
	for i := range c {
		c[i] = make([]int, len(n.Transitions))
	}
	var ds []PlaceDelta
	for j, t := range n.Transitions {
		ds = t.AppendDeltas(ds[:0])
		for _, d := range ds {
			c[d.Place][j] = d.Delta
		}
	}
	return c
}

// PlaceBounds returns, per place, the maximum token count observed over
// every marking retained by the exploration. When the exploration ran
// to completion (r.Truncated false) these are the exact bounds of the
// explored fragment — for a net explored from its initial marking with
// all transitions fireable, the guaranteed place bounds; when it was
// truncated they are lower bounds only. It reads the store's rows in
// place and stops reading a place once its count fills the place's
// field (see MarkingStore), so on a store whose fields the bounds fill
// it reads only the first few states.
func (r *ReachResult) PlaceBounds() []int { return r.Store.maxCounts() }

// semiflowBounds returns, for each place of ft's net, the most tokens
// that the net's minimal P-semiflows allow it at a marking Drive reaches
// under spec, and MaxTokens where no semiflow covers it. A semiflow y of
// the incidence matrix restricted to the transitions spec lets fire
// keeps the weighted sum y·M equal to y·M0 at every such marking M, so a
// place p in its support holds at most ⌊y·M0 / y(p)⌋ tokens; caps only
// veto successors, which keeps the sum too. It returns nil when the
// Farkas procedure gives up (see linalg.Semiflows).
func semiflowBounds(ft *FiringTable, spec *ExpandSpec) []uint32 {
	places := ft.net.Places
	fires := func(e *ECS) bool { return spec.Mask[e.Index>>6]&(1<<(uint(e.Index)&63)) != 0 }
	size := 0
	for _, e := range ft.part {
		if fires(e) {
			for _, t := range e.Trans {
				size += len(ft.Deltas(t))
			}
		}
	}
	a := make([]linalg.Entry, 0, size)
	cols := 0
	for _, e := range ft.part {
		if !fires(e) {
			continue
		}
		for _, t := range e.Trans {
			for _, d := range ft.Deltas(t) {
				a = append(a, linalg.Entry{Row: int(d.Place), Col: cols, Val: d.Delta})
			}
			cols++
		}
	}
	ys, ok := linalg.Semiflows(len(places), cols, a)
	if !ok {
		return nil
	}
	bounds := make([]uint32, len(places))
	for p := range bounds {
		bounds[p] = MaxTokens
	}
	for y := range slices.Chunk(ys, len(places)) {
		// y·M0, saturated at 2⁶³: past it, every quotient passes
		// MaxTokens, and no term (a weight and a count below 2³¹) can
		// carry the sum past 2⁶⁴.
		var sum uint64
		for p, w := range y {
			sum = min(sum+uint64(w)*uint64(ceiling(places[p].Initial)), 1<<63)
		}
		for p, w := range y {
			if w > 0 {
				bounds[p] = uint32(min(uint64(bounds[p]), sum/uint64(w)))
			}
		}
	}
	return bounds
}

// UncontrollableSources returns the IDs of all uncontrollable source
// transitions, ascending. One schedule (task) is generated per entry.
func (n *Net) UncontrollableSources() []int {
	var out []int
	for _, t := range n.Transitions {
		if t.Kind == TransSourceUnc {
			out = append(out, t.ID)
		}
	}
	sort.Ints(out)
	return out
}
