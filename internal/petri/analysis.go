package petri

import "sort"

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
// truncated they are lower bounds only.
func (r *ReachResult) PlaceBounds() []int {
	bounds := make([]int, r.Store.Places())
	var m Marking
	for id := range r.Store.Len() {
		m = r.Store.Load(m, MarkID(id))
		for p, v := range m {
			bounds[p] = max(bounds[p], int(v))
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
