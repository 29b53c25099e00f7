// Package sched implements quasi-static schedule computation — the
// primary contribution of the paper. For every uncontrollable source
// transition it searches the (pruned) reachability tree of the system
// Petri net for a single-source schedule: a finite cyclic graph that
// survives every resolution of data-dependent choices and always returns
// to the initial marking, firing environment sources only at await nodes.
//
// Each engine builds one petri.FiringTable per search; it fires the
// transitions and keeps per-state enabled-ECS bitsets incrementally
// across firings, so no engine scans the partition. The default graph
// engine's exploration is petri.Drive: a serial level-synchronous
// search on the calling goroutine, whose state numbering — and
// therefore the schedule and generated code — depends only on the net
// and the options. Concurrency lives one level up: package core runs
// one search per uncontrollable input on a pool.
//
// # Completeness of the graph engine
//
// The graph engine finds a schedule whenever some tree schedule (EP's,
// say) keeps all its markings within the engine's place caps. Let S be
// the set of markings of such a schedule's nodes.
//
//   - Each marking of S is reached from the root by the schedule's own
//     firings, of allowed ECSs and within the caps, so the exploration
//     interns it (or runs out of budget and reports ErrBudget).
//   - Each marking of S has an allowed ECS whose successors all lie in
//     S: the ECS the schedule fires at a node carrying it.
//   - Each marking of S reaches the root inside S: every schedule node
//     reaches the root (property 5 of a schedule), firing such ECSs only.
//
// solve computes the greatest set X of explored markings in which each
// marking keeps an ECS with every successor in X and reaches the root
// inside X; it only removes markings that break one of the two rules.
// S obeys both within itself, so none of its markings is ever removed
// and S lies inside X. The root is in S and its source ECS keeps its
// successor in S, so solve succeeds and build extracts a schedule.
package sched

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"repro/internal/petri"
)

// Node is one schedule node: a marking together with the equal conflict
// set scheduled at it. The out-edges carry exactly the transitions of the
// ECS.
type Node struct {
	ID      int
	Marking petri.Marking
	ECS     *petri.ECS
	Edges   []Edge
}

// Edge is one schedule edge.
type Edge struct {
	Trans int
	To    *Node
}

// Schedule is a single-source schedule for one uncontrollable source
// transition (Definition in Section 4.1: five properties).
type Schedule struct {
	Net    *petri.Net
	Source int // the uncontrollable source transition
	Root   *Node
	Nodes  []*Node // all nodes, root first
	// Part is the ECS partition (Net.ECSPartition) the search ran on;
	// Validate and code generation read it instead of building another.
	Part []*petri.ECS

	// Stats describes the search that produced the schedule.
	Stats SearchStats
}

// SearchStats reports search effort.
type SearchStats struct {
	NodesCreated int // tree nodes created by EP/EP_ECS, or graph states
	NodesKept    int // schedule nodes after post-processing
	Pruned       int // nodes cut by the termination condition
	// DistinctMarkings counts the markings interned by the search's
	// hash-consing store. For the graph engine it equals NodesCreated;
	// for the tree engines the gap NodesCreated-DistinctMarkings measures
	// how much interleaving re-exploration the graph engine avoids.
	DistinctMarkings int
	// StoreHotBytes is the search store's exact live footprint
	// (petri.MarkingStore.Mem), a pure function of the interned marking
	// sequence, so it compares across machines.
	StoreHotBytes int64
}

// IsAwait reports whether the node awaits an environment trigger, i.e.
// its scheduled ECS is the singleton of an uncontrollable source.
func (s *Schedule) IsAwait(n *Node) bool {
	return n.ECS != nil && n.ECS.IsUncontrollable(s.Net)
}

// AwaitNodes returns all await nodes, root first.
func (s *Schedule) AwaitNodes() []*Node {
	var out []*Node
	for _, n := range s.Nodes {
		if s.IsAwait(n) {
			out = append(out, n)
		}
	}
	return out
}

// InvolvedTransitions returns the set of transition IDs appearing on
// schedule edges, ascending.
func (s *Schedule) InvolvedTransitions() []int {
	seen := map[int]bool{}
	for _, n := range s.Nodes {
		for _, e := range n.Edges {
			seen[e.Trans] = true
		}
	}
	out := make([]int, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// InvolvedPlaces returns the IDs of places involved in the schedule: the
// predecessors of involved transitions (the paper's definition), plus
// places whose token count changes across schedule nodes.
func (s *Schedule) InvolvedPlaces() []int {
	seen := map[int]bool{}
	for _, t := range s.InvolvedTransitions() {
		for _, a := range s.Net.Transitions[t].In {
			seen[a.Place] = true
		}
		for _, a := range s.Net.Transitions[t].Out {
			seen[a.Place] = true
		}
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// PlaceBounds returns, for every place, the maximum token count over all
// schedule node markings. For places corresponding to channels this is
// the statically guaranteed buffer size (Section 4.3).
func (s *Schedule) PlaceBounds() []int {
	bounds := make([]int, len(s.Net.Places))
	for _, n := range s.Nodes {
		for p, v := range n.Marking {
			bounds[p] = max(bounds[p], int(v))
		}
	}
	return bounds
}

// Validate checks the five defining properties of a schedule:
//
//  1. the root carries the initial marking and has out-degree one;
//  2. the root's edge fires the schedule's source transition;
//  3. each node's out-edges carry exactly one enabled ECS;
//  4. each edge's target marking results from firing its transition;
//  5. every node lies on a directed cycle through the root.
func (s *Schedule) Validate() error {
	if s.Root == nil {
		return fmt.Errorf("sched: schedule has no root")
	}
	if !s.Root.Marking.Equal(s.Net.InitialMarking()) {
		return fmt.Errorf("sched: root marking %v differs from initial marking", s.Root.Marking)
	}
	if len(s.Root.Edges) != 1 {
		return fmt.Errorf("sched: root out-degree %d, want 1", len(s.Root.Edges))
	}
	if s.Root.Edges[0].Trans != s.Source {
		return fmt.Errorf("sched: root edge fires %s, want source %s",
			s.Net.Transitions[s.Root.Edges[0].Trans].Name, s.Net.Transitions[s.Source].Name)
	}
	part := s.Part
	idx := petri.ECSIndex(part, len(s.Net.Transitions))
	for _, n := range s.Nodes {
		if len(n.Edges) == 0 {
			return fmt.Errorf("sched: node %d has no out-edges", n.ID)
		}
		// All edges in one ECS, covering it entirely.
		e0 := idx[n.Edges[0].Trans]
		seen := map[int]bool{}
		for _, e := range n.Edges {
			if idx[e.Trans] != e0 {
				return fmt.Errorf("sched: node %d mixes ECSs", n.ID)
			}
			if seen[e.Trans] {
				return fmt.Errorf("sched: node %d duplicates transition %d", n.ID, e.Trans)
			}
			seen[e.Trans] = true
			t := s.Net.Transitions[e.Trans]
			if !n.Marking.Enabled(t) {
				return fmt.Errorf("sched: node %d: transition %s not enabled", n.ID, t.Name)
			}
			want := n.Marking.Fire(t)
			if !want.Equal(e.To.Marking) {
				return fmt.Errorf("sched: edge %d -%s-> %d: marking mismatch", n.ID, t.Name, e.To.ID)
			}
		}
		if len(seen) != len(part[e0].Trans) {
			return fmt.Errorf("sched: node %d covers only %d of %d ECS transitions",
				n.ID, len(seen), len(part[e0].Trans))
		}
	}
	// Property 5: every node reaches the root and is reachable from it.
	fromRoot := map[int]bool{}
	var dfs func(n *Node)
	dfs = func(n *Node) {
		if fromRoot[n.ID] {
			return
		}
		fromRoot[n.ID] = true
		for _, e := range n.Edges {
			dfs(e.To)
		}
	}
	dfs(s.Root)
	// Reverse reachability to root.
	rev := map[int][]*Node{}
	for _, n := range s.Nodes {
		for _, e := range n.Edges {
			rev[e.To.ID] = append(rev[e.To.ID], n)
		}
	}
	toRoot := map[int]bool{}
	stack := []*Node{s.Root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if toRoot[n.ID] {
			continue
		}
		toRoot[n.ID] = true
		for _, p := range rev[n.ID] {
			stack = append(stack, p)
		}
	}
	for _, n := range s.Nodes {
		if !fromRoot[n.ID] {
			return fmt.Errorf("sched: node %d unreachable from root", n.ID)
		}
		if !toRoot[n.ID] {
			return fmt.Errorf("sched: node %d cannot return to root (property 5)", n.ID)
		}
	}
	return nil
}

// Format renders the schedule as readable text, one node per line.
func (s *Schedule) Format(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "schedule for %s (%d nodes)\n", s.Net.Transitions[s.Source].Name, len(s.Nodes))
	for _, n := range s.Nodes {
		tag := ""
		if n == s.Root {
			tag = " (root)"
		} else if s.IsAwait(n) {
			tag = " (await)"
		}
		fmt.Fprintf(bw, "  n%d [%s]%s:", n.ID, n.Marking.Format(s.Net), tag)
		for _, e := range n.Edges {
			fmt.Fprintf(bw, " -%s-> n%d", s.Net.Transitions[e.Trans].Name, e.To.ID)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// Dot renders the schedule in Graphviz DOT format.
func (s *Schedule) Dot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph schedule_%s {\n", s.Net.Transitions[s.Source].Name)
	for _, n := range s.Nodes {
		shape := "ellipse"
		if s.IsAwait(n) {
			shape = "doublecircle"
		}
		fmt.Fprintf(bw, "  n%d [shape=%s label=\"%s\"];\n", n.ID, shape, n.Marking.Format(s.Net))
	}
	for _, n := range s.Nodes {
		for _, e := range n.Edges {
			fmt.Fprintf(bw, "  n%d -> n%d [label=\"%s\"];\n", n.ID, e.To.ID, s.Net.Transitions[e.Trans].Name)
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
