package petri

import (
	"fmt"
	"sort"
)

// ChoiceClass classifies a choice place (a place with more than one
// successor transition).
type ChoiceClass int

const (
	// ChoiceNone means the place has at most one successor.
	ChoiceNone ChoiceClass = iota
	// ChoiceEqual means all successors belong to the same ECS (a
	// generalization of free choice): a data-dependent control.
	ChoiceEqual
	// ChoiceUnique means no two successors can be simultaneously enabled
	// in any reachable marking (e.g. a port read from several program
	// points of one sequential process).
	ChoiceUnique
	// ChoiceOther is a choice place that is neither equal nor provably
	// unique; its presence makes the net non-UCPN (e.g. SELECT).
	ChoiceOther
)

// String implements fmt.Stringer.
func (c ChoiceClass) String() string {
	switch c {
	case ChoiceNone:
		return "none"
	case ChoiceEqual:
		return "equal"
	case ChoiceUnique:
		return "unique"
	case ChoiceOther:
		return "other"
	}
	return fmt.Sprintf("ChoiceClass(%d)", int(c))
}

// ClassifyChoice classifies place p. The uniqueness test is structural
// and conservative: the successors are pairwise non-co-enableable if each
// pair consumes from two distinct internal (program-counter) places of
// the same sequential process — a process has exactly one marked internal
// place at any reachable marking by construction of the FlowC compiler.
func (n *Net) ClassifyChoice(p *Place) ChoiceClass {
	succ := n.Successors(p.ID)
	if len(succ) <= 1 {
		return ChoiceNone
	}
	part := n.ECSPartition()
	idx := ECSIndex(part, len(n.Transitions))
	same := true
	for _, t := range succ[1:] {
		if idx[t] != idx[succ[0]] {
			same = false
			break
		}
	}
	if same {
		return ChoiceEqual
	}
	if n.pairwiseExclusive(succ) {
		return ChoiceUnique
	}
	return ChoiceOther
}

// pairwiseExclusive reports whether every pair of the given transitions
// consumes from distinct internal places of one common sequential
// process, which makes simultaneous enabling impossible.
func (n *Net) pairwiseExclusive(trans []int) bool {
	for i := 0; i < len(trans); i++ {
		for j := i + 1; j < len(trans); j++ {
			if !n.exclusivePair(n.Transitions[trans[i]], n.Transitions[trans[j]]) {
				return false
			}
		}
	}
	return true
}

func (n *Net) exclusivePair(a, b *Transition) bool {
	for _, aa := range a.In {
		pa := n.Places[aa.Place]
		if pa.Kind != PlaceInternal {
			continue
		}
		for _, ba := range b.In {
			pb := n.Places[ba.Place]
			if pb.Kind != PlaceInternal {
				continue
			}
			if pa.Process != "" && pa.Process == pb.Process && pa.ID != pb.ID {
				return true
			}
		}
	}
	return false
}

// ChoicePlaces returns the IDs of all places with more than one successor
// transition, ascending.
func (n *Net) ChoicePlaces() []int {
	var out []int
	for _, p := range n.Places {
		if len(n.Successors(p.ID)) > 1 {
			out = append(out, p.ID)
		}
	}
	return out
}

// IsUniqueChoice reports whether the net is a unique-choice Petri net
// (UCPN): every choice place is either equal choice or unique choice.
// FlowC specifications without SELECT compile to UCPNs.
func (n *Net) IsUniqueChoice() bool {
	for _, id := range n.ChoicePlaces() {
		switch n.ClassifyChoice(n.Places[id]) {
		case ChoiceEqual, ChoiceUnique:
		default:
			return false
		}
	}
	return true
}

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

// BackwardReachableTransitions returns the set of transition IDs that
// have a directed path (alternating transitions and places) to any of
// the seed transitions, including the seeds themselves. Used to reason
// about schedule involvement (Property 4.1).
func (n *Net) BackwardReachableTransitions(seeds []int) map[int]bool {
	seen := map[int]bool{}
	stack := append([]int(nil), seeds...)
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[t] {
			continue
		}
		seen[t] = true
		for _, a := range n.Transitions[t].In {
			for _, pred := range n.Predecessors(a.Place) {
				if !seen[pred] {
					stack = append(stack, pred)
				}
			}
		}
	}
	return seen
}

// PlaceBounds returns, per place, the maximum token count observed over
// every marking retained by the exploration. When the exploration ran
// to completion (r.Truncated false) these are the exact bounds of the
// explored fragment — for a net explored from its initial marking with
// all transitions fireable, the guaranteed place bounds; when it was
// truncated they are lower bounds only. Frozen markings are thawed
// transparently through the store.
func (r *ReachResult) PlaceBounds() []int {
	bounds := make([]int, r.Store.Places())
	for _, m := range r.Store.All() {
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
