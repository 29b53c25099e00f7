// Package codegen turns schedules into software tasks (Section 6 of the
// paper): the schedule is decomposed into threads and shared code
// segments, state variables are selected from the places that
// discriminate the residual marking, and a sequential C task (the ISR)
// is synthesized with goto chaining between segments.
//
// Generate is the structural half: it walks a sched.Schedule, merges
// shared tails into reusable code segments (segment.go) and returns a
// Task; the threads a reaction runs through from each await node are
// the paths between await nodes (Figure 15, checked in the tests).
// Synthesize is the textual half: it renders a Task into a single C source —
// deterministic byte-for-byte output, which is what the golden files,
// the dist determinism matrix and the server smoke test all pin.
package codegen

import (
	"fmt"
	"sort"

	"repro/internal/petri"
	"repro/internal/sched"
)

// SegNode is a node of a code segment: one equal conflict set, with one
// out-edge per member transition. Each edge either continues inside the
// segment or ends at a leaf that jumps to another segment (or returns).
type SegNode struct {
	ECS   *petri.ECS
	Edges []SegEdge
}

// SegEdge is one transition of the node's ECS together with its
// continuation.
type SegEdge struct {
	Trans int
	Child *SegNode // in-segment continuation; nil at a leaf
	Leaf  *Leaf    // set when Child is nil
}

// Leaf terminates a path of a code segment: a state-dependent jump to the
// root of another segment, or a return to the scheduler when the thread
// is complete (next ECS is the task's source).
type Leaf struct {
	// States lists the (marking, next ECS index) pairs observed at the
	// corresponding schedule nodes, deterministically ordered.
	States []LeafState
	// Update is the state-variable delta of the whole root-to-leaf path,
	// keyed by place ID (only state variables appear).
	Update map[int]int
}

// LeafState is one observed continuation.
type LeafState struct {
	Marking petri.Marking
	NextECS int // ECS index in the net partition; -1 encodes "return"
}

// Segment is a rooted tree of SegNodes. Its label (used for C labels and
// gotos) is the concatenation of the root ECS transition names.
type Segment struct {
	Index int
	Root  *SegNode
	Label string
}

// Task is the software task generated for one uncontrollable source.
type Task struct {
	Name      string
	Net       *petri.Net
	Source    int
	Schedule  *sched.Schedule
	Segments  []*Segment       // Segments[0] is cs1 (contains the source ECS)
	SegByECS  map[int]*Segment // ECS index -> segment whose root is that ECS
	StateVars []int            // place IDs used as state variables, ascending
	ECSIdx    []int            // transition -> ECS index
}

// quotient node bookkeeping during construction.
type quotNode struct {
	ecs *petri.ECS
	// succ[t] = set of next ECS indices observed when firing t.
	succ map[int]map[int]bool
	// states[t] = ordered (marking, nextECS) pairs when firing t.
	states map[int][]LeafState
	inDeg  int // number of distinct (E,t) predecessor edges
}

// Generate builds the task for a schedule.
func Generate(s *sched.Schedule, name string) (*Task, error) {
	net := s.Net
	part := s.Part
	idx := petri.ECSIndex(part, len(net.Transitions))
	srcECS := idx[s.Source]

	// Build the ECS quotient of the schedule.
	quot := map[int]*quotNode{}
	getQ := func(e int) *quotNode {
		q := quot[e]
		if q == nil {
			q = &quotNode{ecs: part[e], succ: map[int]map[int]bool{}, states: map[int][]LeafState{}}
			quot[e] = q
		}
		return q
	}
	for _, n := range s.Nodes {
		e := idx[n.Edges[0].Trans]
		q := getQ(e)
		for _, ed := range n.Edges {
			nextE := idx[ed.To.Edges[0].Trans]
			if q.succ[ed.Trans] == nil {
				q.succ[ed.Trans] = map[int]bool{}
			}
			q.succ[ed.Trans][nextE] = true
			q.states[ed.Trans] = append(q.states[ed.Trans], LeafState{Marking: ed.To.Marking, NextECS: nextE})
		}
	}
	// Deduplicate states and order them deterministically.
	for _, q := range quot {
		for t := range q.states {
			q.states[t] = dedupStates(q.states[t])
		}
	}

	// In-degrees over distinct (E, t) quotient edges.
	for _, q := range quot {
		for t := range q.succ {
			for nextE := range q.succ[t] {
				getQ(nextE).inDeg++
			}
		}
	}

	// Segment roots: the source ECS; any ECS with >= 2 predecessor
	// edges; any ECS reached by a state-dependent edge.
	isRoot := map[int]bool{srcECS: true}
	ecsKeys := sortedKeys(quot)
	for _, e := range ecsKeys {
		q := quot[e]
		if q.inDeg >= 2 {
			isRoot[e] = true
		}
		for t := range q.succ {
			if len(q.succ[t]) > 1 {
				for nextE := range q.succ[t] {
					isRoot[nextE] = true
				}
			}
		}
	}

	task := &Task{
		Name:     name,
		Net:      net,
		Source:   s.Source,
		Schedule: s,
		SegByECS: map[int]*Segment{},
		ECSIdx:   idx,
	}

	// Select state variables before building leaves so update deltas can
	// be restricted to them.
	task.StateVars = selectStateVars(s, quot, isRoot, srcECS)

	// Grow segments from each root, inlining single-predecessor
	// deterministic continuations. Cycle safety: an ECS already placed
	// in the current segment path becomes a root retroactively; we
	// resolve this by marking any back-edge target as a root first.
	markCycleRoots(quot, isRoot, srcECS)

	var rootList []int
	for e := range isRoot {
		if quot[e] != nil {
			rootList = append(rootList, e)
		}
	}
	sort.Ints(rootList)
	// cs1 first.
	for i, e := range rootList {
		if e == srcECS && i != 0 {
			rootList[0], rootList[i] = rootList[i], rootList[0]
		}
	}

	built := map[int]*SegNode{}
	for _, e := range rootList {
		seg := &Segment{Index: len(task.Segments), Label: ecsLabel(net, part[e])}
		seg.Root = buildSegTree(task, quot, isRoot, e, built, srcECS)
		task.Segments = append(task.Segments, seg)
		task.SegByECS[e] = seg
	}
	if len(task.Segments) == 0 || task.SegByECS[srcECS] == nil {
		return nil, fmt.Errorf("codegen: schedule for %s produced no entry segment", name)
	}
	// The entry segment must be first.
	if task.Segments[0] != task.SegByECS[srcECS] {
		for i, sg := range task.Segments {
			if sg == task.SegByECS[srcECS] {
				task.Segments[0], task.Segments[i] = task.Segments[i], task.Segments[0]
			}
		}
		for i, sg := range task.Segments {
			sg.Index = i
		}
	}
	computeUpdates(task)
	return task, nil
}

func dedupStates(in []LeafState) []LeafState {
	sort.Slice(in, func(i, j int) bool {
		if c := in[i].Marking.Compare(in[j].Marking); c != 0 {
			return c < 0
		}
		return in[i].NextECS < in[j].NextECS
	})
	var out []LeafState
	for i, st := range in {
		if i > 0 && out[len(out)-1].Marking.Equal(st.Marking) && out[len(out)-1].NextECS == st.NextECS {
			continue
		}
		out = append(out, st)
	}
	return out
}

func sortedKeys(m map[int]*quotNode) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// markCycleRoots walks the quotient graph from the source ECS and marks
// the target of every back edge as a segment root so segments stay
// acyclic trees.
func markCycleRoots(quot map[int]*quotNode, isRoot map[int]bool, srcECS int) {
	state := map[int]int{} // 0 unvisited, 1 on stack, 2 done
	var dfs func(e int)
	dfs = func(e int) {
		state[e] = 1
		q := quot[e]
		for _, t := range sortedIntKeys(q.succ) {
			for _, nextE := range sortedBoolKeys(q.succ[t]) {
				switch state[nextE] {
				case 1:
					isRoot[nextE] = true
				case 0:
					dfs(nextE)
				}
			}
		}
		state[e] = 2
	}
	dfs(srcECS)
}

func sortedIntKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sortedBoolKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// buildSegTree builds the segment tree rooted at ECS e. A continuation is
// inlined when the edge is deterministic (single next ECS), the next ECS
// is not a segment root, and it has not been placed elsewhere.
func buildSegTree(task *Task, quot map[int]*quotNode, isRoot map[int]bool, e int, built map[int]*SegNode, srcECS int) *SegNode {
	q := quot[e]
	node := &SegNode{ECS: q.ecs}
	built[e] = node
	for _, t := range q.ecs.Trans {
		states := q.states[t]
		succ := q.succ[t]
		var edge SegEdge
		edge.Trans = t
		if len(succ) == 1 {
			nextE := sortedBoolKeys(succ)[0]
			if !isRoot[nextE] && built[nextE] == nil {
				edge.Child = buildSegTree(task, quot, isRoot, nextE, built, srcECS)
				node.Edges = append(node.Edges, edge)
				continue
			}
		}
		// Leaf: jump decided by the residual state.
		leaf := &Leaf{}
		for _, st := range states {
			next := st.NextECS
			if next == srcECS {
				next = -1 // return to the scheduler (await node reached)
			}
			leaf.States = append(leaf.States, LeafState{Marking: st.Marking, NextECS: next})
		}
		edge.Leaf = leaf
		node.Edges = append(node.Edges, edge)
	}
	return node
}

// selectStateVars picks the places used as state variables: places whose
// token count is both updated by some involved transition and needed to
// discriminate a state-dependent jump (the intersection of Section
// 6.4.1), always including places that distinguish markings mapped to
// different continuations.
func selectStateVars(s *sched.Schedule, quot map[int]*quotNode, isRoot map[int]bool, srcECS int) []int {
	updated := map[int]bool{}
	var ds []petri.PlaceDelta
	for _, tid := range s.InvolvedTransitions() {
		ds = s.Net.Transitions[tid].AppendDeltas(ds[:0])
		for _, d := range ds {
			updated[int(d.Place)] = true
		}
	}
	needed := map[int]bool{}
	for _, e := range sortedKeys(quot) {
		q := quot[e]
		for _, t := range sortedIntKeys(q.states) {
			states := q.states[t]
			if len(states) < 2 {
				continue
			}
			// Discriminate states with different continuations.
			for i := 0; i < len(states); i++ {
				for j := i + 1; j < len(states); j++ {
					if states[i].NextECS == states[j].NextECS {
						continue
					}
					// Greedy: first updated place where they differ.
					for p := range states[i].Marking {
						if states[i].Marking[p] != states[j].Marking[p] && updated[p] {
							needed[p] = true
							break
						}
					}
				}
			}
		}
	}
	var out []int
	for p := range needed {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// computeUpdates fills each leaf's Update map with the path delta
// restricted to state variables.
func computeUpdates(task *Task) {
	sv := map[int]bool{}
	for _, p := range task.StateVars {
		sv[p] = true
	}
	var ds []petri.PlaceDelta
	for _, seg := range task.Segments {
		var walk func(n *SegNode, delta map[int]int)
		walk = func(n *SegNode, delta map[int]int) {
			for _, e := range n.Edges {
				d := map[int]int{}
				for k, v := range delta {
					d[k] = v
				}
				ds = task.Net.Transitions[e.Trans].AppendDeltas(ds[:0])
				for _, pd := range ds {
					if p := int(pd.Place); sv[p] {
						d[p] += pd.Delta
					}
				}
				if e.Child != nil {
					walk(e.Child, d)
					continue
				}
				upd := map[int]int{}
				for k, v := range d {
					if v != 0 {
						upd[k] = v
					}
				}
				e.Leaf.Update = upd
			}
		}
		walk(seg.Root, map[int]int{})
	}
}

// ecsLabel builds the C label of a segment: the concatenation of the
// transition names of its root ECS.
func ecsLabel(n *petri.Net, e *petri.ECS) string {
	label := ""
	for _, t := range e.Trans {
		label += sanitizeLabel(n.Transitions[t].Name)
	}
	return label
}

func sanitizeLabel(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
