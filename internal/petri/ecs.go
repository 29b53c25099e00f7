package petri

import "sort"

// ECS is an equal conflict set: a maximal set of non-source transitions
// with identical presets (F(p,t_i) == F(p,t_j) for all p), or a singleton
// source transition. If one member is enabled at a marking, all are.
//
// ECSs are the alphabet of the scheduler: a data-dependent control
// construct compiles to one ECS with several transitions (the scheduler
// must survive every resolution), while SELECT alternatives have distinct
// presets and therefore land in distinct ECSs (the scheduler may pick).
type ECS struct {
	Index int   // position in the net's ECS partition
	Trans []int // member transition IDs, ascending
}

// IsSourceECS reports whether the ECS is the singleton of a source
// transition.
func (e *ECS) IsSourceECS(n *Net) bool {
	return len(e.Trans) == 1 && n.Transitions[e.Trans[0]].IsSource()
}

// IsUncontrollable reports whether the ECS is the singleton of an
// uncontrollable source transition.
func (e *ECS) IsUncontrollable(n *Net) bool {
	return len(e.Trans) == 1 && n.Transitions[e.Trans[0]].Kind == TransSourceUnc
}

// Enabled reports whether the ECS is enabled at m. By the equal-conflict
// property it suffices to test one member.
func (e *ECS) Enabled(n *Net, m Marking) bool {
	return m.Enabled(n.Transitions[e.Trans[0]])
}

// ECSPartition computes the equal-conflict partition of the net's
// transitions. The result is deterministic: classes are ordered by their
// smallest member ID, members ascending.
//
// Grouping compares canonically sorted preset arc lists directly (one
// shared arena, a sort, and a linear grouping pass) instead of building
// a per-transition key string — partition construction is on the
// once-per-search setup path of every engine and used to dominate its
// allocation bill.
func (n *Net) ECSPartition() []*ECS {
	numT := len(n.Transitions)
	totalIn := 0
	for _, t := range n.Transitions {
		totalIn += len(t.In)
	}
	// arcs[off[t]:off[t+1]] is transition t's preset sorted by place.
	arcs := make([]Arc, 0, totalIn)
	off := make([]int32, numT+1)
	var nonSrc []int
	for _, t := range n.Transitions {
		off[t.ID] = int32(len(arcs))
		arcs = append(arcs, t.In...)
		// Presets are a handful of arcs: insertion-sort the segment in
		// place rather than paying a reflective sort.Slice per
		// transition.
		seg := arcs[off[t.ID]:]
		for i := 1; i < len(seg); i++ {
			for j := i; j > 0 && seg[j].Place < seg[j-1].Place; j-- {
				seg[j], seg[j-1] = seg[j-1], seg[j]
			}
		}
		if !t.IsSource() {
			nonSrc = append(nonSrc, t.ID)
		}
	}
	off[numT] = int32(len(arcs))
	preset := func(id int) []Arc { return arcs[off[id]:off[id+1]] }
	cmpPreset := func(a, b []Arc) int {
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i].Place != b[i].Place {
				if a[i].Place < b[i].Place {
					return -1
				}
				return 1
			}
			if a[i].Weight != b[i].Weight {
				if a[i].Weight < b[i].Weight {
					return -1
				}
				return 1
			}
		}
		return len(a) - len(b)
	}
	// Sort non-source transitions by preset (ties by ID): equal presets
	// become adjacent runs with ascending members.
	sort.Slice(nonSrc, func(i, j int) bool {
		if c := cmpPreset(preset(nonSrc[i]), preset(nonSrc[j])); c != 0 {
			return c < 0
		}
		return nonSrc[i] < nonSrc[j]
	})
	var classes [][]int
	for i := 0; i < len(nonSrc); {
		j := i + 1
		for j < len(nonSrc) && cmpPreset(preset(nonSrc[i]), preset(nonSrc[j])) == 0 {
			j++
		}
		classes = append(classes, nonSrc[i:j:j])
		i = j
	}
	// Each source transition is its own ECS by definition.
	for _, t := range n.Transitions {
		if t.IsSource() {
			classes = append(classes, []int{t.ID})
		}
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i][0] < classes[j][0] })
	arena := make([]ECS, len(classes))
	out := make([]*ECS, len(classes))
	for i, ts := range classes {
		arena[i] = ECS{Index: i, Trans: ts}
		out[i] = &arena[i]
	}
	return out
}

// ECSIndex maps every transition ID to the index of its ECS within the
// given partition.
func ECSIndex(part []*ECS, numTrans int) []int {
	idx := make([]int, numTrans)
	for i := range idx {
		idx[i] = -1
	}
	for _, e := range part {
		for _, t := range e.Trans {
			idx[t] = e.Index
		}
	}
	return idx
}
