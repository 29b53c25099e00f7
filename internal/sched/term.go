package sched

import (
	"fmt"

	"repro/internal/petri"
)

// Termination is a pluggable condition θ that prunes the schedule search
// (Section 4.4): when Prune returns true for a freshly created tree node,
// the search does not continue below it. The search space RT_θ is the
// maximal subtree of the reachability tree on which θ never holds.
type Termination interface {
	// Prune receives the new node's marking and the markings of its
	// proper ancestors, root first. The slice aliases an engine-owned
	// stack: implementations must not retain it across calls. All
	// built-in conditions treat it as an unordered set (plus its
	// length), which is what lets the engines maintain it push/pop
	// instead of rebuilding it per node.
	Prune(m petri.Marking, ancestors []petri.Marking) bool
	// Name identifies the condition in diagnostics.
	Name() string
}

// Irrelevance is the paper's irrelevant-marking criterion (Def. 4.5):
// prune a marking that covers some ancestor while every strictly grown
// place is saturated at or beyond its structural degree (Def. 4.4).
type Irrelevance struct {
	degrees []int
}

// NewIrrelevance builds the criterion for the given net, precomputing
// place degrees.
func NewIrrelevance(n *petri.Net) *Irrelevance {
	return &Irrelevance{degrees: n.Degrees()}
}

// Prune implements Termination.
func (ir *Irrelevance) Prune(m petri.Marking, ancestors []petri.Marking) bool {
	return petri.Irrelevant(m, ancestors, ir.degrees)
}

// Name implements Termination.
func (ir *Irrelevance) Name() string { return "irrelevance" }

// Degrees exposes the precomputed place degrees (for diagnostics).
func (ir *Irrelevance) Degrees() []int { return ir.degrees }

// PlaceBounds prunes any marking exceeding a per-place bound, the
// termination condition of Strehl et al. the paper compares against.
// A zero bound means unbounded.
type PlaceBounds struct {
	Bounds []int
}

// UniformBounds builds a PlaceBounds with the same bound for all places.
func UniformBounds(n *petri.Net, bound int) *PlaceBounds {
	b := make([]int, len(n.Places))
	for i := range b {
		b[i] = bound
	}
	return &PlaceBounds{Bounds: b}
}

// UserBounds builds a PlaceBounds from the Bound attributes recorded on
// the net's places (0 = unbounded).
func UserBounds(n *petri.Net) *PlaceBounds {
	b := make([]int, len(n.Places))
	for i, p := range n.Places {
		b[i] = p.Bound
	}
	return &PlaceBounds{Bounds: b}
}

// Prune implements Termination.
func (pb *PlaceBounds) Prune(m petri.Marking, _ []petri.Marking) bool {
	for i, v := range m {
		if pb.Bounds[i] > 0 && int(v) > pb.Bounds[i] {
			return true
		}
	}
	return false
}

// Name implements Termination.
func (pb *PlaceBounds) Name() string { return "place-bounds" }

// DepthLimit prunes below a maximum tree depth — a safety net for
// pathological nets, not one of the paper's criteria.
type DepthLimit struct {
	Max   int
	depth int // updated by the engine before each Prune call
}

// Prune implements Termination (the engine tracks depth via ancestors).
func (d *DepthLimit) Prune(_ petri.Marking, ancestors []petri.Marking) bool {
	return len(ancestors) >= d.Max
}

// Name implements Termination.
func (d *DepthLimit) Name() string { return fmt.Sprintf("depth<=%d", d.Max) }

// Any combines conditions disjunctively: prune when any member prunes.
type Any []Termination

// Prune implements Termination.
func (a Any) Prune(m petri.Marking, ancestors []petri.Marking) bool {
	for _, t := range a {
		if t.Prune(m, ancestors) {
			return true
		}
	}
	return false
}

// Name implements Termination.
func (a Any) Name() string {
	s := "any("
	for i, t := range a {
		if i > 0 {
			s += ","
		}
		s += t.Name()
	}
	return s + ")"
}
