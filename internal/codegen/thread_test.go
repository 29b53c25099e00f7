package codegen

import (
	"sort"
	"testing"

	"repro/internal/sched"
)

func TestFig15Threads(t *testing.T) {
	task := fig8Task(t)
	ths := threads(task)
	// Two await nodes (markings 0 and p3) -> two threads.
	if len(ths) != 2 {
		t.Fatalf("threads = %d, want 2 (Figure 15)", len(ths))
	}
	// Identify the threads by their starting marking.
	var th1, th2 *thread
	for i := range ths {
		if ths[i].Start.Marking.Total() == 0 {
			th1 = &ths[i]
		} else {
			th2 = &ths[i]
		}
	}
	if th1 == nil || th2 == nil {
		t.Fatalf("could not identify TH1/TH2: %+v", ths)
	}
	segLabel := func(idx int) string { return task.Segments[idx].Label }
	has := func(th *thread, label string) bool {
		for _, s := range th.Segments {
			if segLabel(s) == label {
				return true
			}
		}
		return false
	}
	// TH1 (from the initial marking): cs1 and cs3 only — the reaction
	// either returns directly (b,d) or parks at p3 (c).
	if !has(th1, "a") || !has(th1, "bc") {
		t.Errorf("TH1 should contain segments a and bc: %+v", th1.Segments)
	}
	if has(th1, "e") {
		t.Errorf("TH1 should not reach segment e")
	}
	// TH2 (from p3): passes through cs2 (e) as in Figure 15.
	if !has(th2, "a") || !has(th2, "bc") || !has(th2, "e") {
		t.Errorf("TH2 should contain a, bc and e: %+v", th2.Segments)
	}
	// TH2 has a bc -> e edge (the goto e of Figure 16).
	var bcIdx, eIdx int
	for _, seg := range task.Segments {
		switch seg.Label {
		case "bc":
			bcIdx = seg.Index
		case "e":
			eIdx = seg.Index
		}
	}
	found := false
	for _, e := range th2.Edges {
		if e == [2]int{bcIdx, eIdx} {
			found = true
		}
	}
	if !found {
		t.Errorf("TH2 edges %v missing bc->e", th2.Edges)
	}
}

// thread is one reaction of the task (Section 6.1): starting from an
// await node, the statements executed until the next await node — here
// summarized as the directed graph of code segments the reaction can
// traverse, matching the per-thread graphs of Figure 15.
type thread struct {
	// Start is the await node this thread serves.
	Start *sched.Node
	// Segments lists the indices of the code segments the thread can
	// execute, ascending; the entry segment (cs1) is always included.
	Segments []int
	// Edges lists observed segment-to-segment transfers (goto targets),
	// as [from, to] pairs in deterministic order.
	Edges [][2]int
}

// threads extracts the thread structure of a task: one thread per
// await node of the schedule. The union of all threads covers every
// code segment (each reaction starts in cs1, the segment holding the
// source ECS).
func threads(t *Task) []thread {
	s := t.Schedule
	segIdxOf := map[int]int{} // ECS index -> containing segment index
	for _, seg := range t.Segments {
		var walk func(n *SegNode)
		walk = func(n *SegNode) {
			segIdxOf[n.ECS.Index] = seg.Index
			for _, e := range n.Edges {
				if e.Child != nil {
					walk(e.Child)
				}
			}
		}
		walk(seg.Root)
	}
	var out []thread
	for _, start := range s.AwaitNodes() {
		th := thread{Start: start}
		segs := map[int]bool{}
		edges := map[[2]int]bool{}
		seen := map[int]bool{}
		// Traverse from the await node's successor until await nodes,
		// recording segment transfers.
		var visit func(n *sched.Node, curSeg int)
		visit = func(n *sched.Node, curSeg int) {
			if seen[n.ID] {
				return
			}
			seen[n.ID] = true
			e := t.ECSIdx[n.Edges[0].Trans]
			seg := segIdxOf[e]
			segs[seg] = true
			if seg != curSeg && curSeg >= 0 {
				edges[[2]int{curSeg, seg}] = true
			}
			if s.IsAwait(n) && n != start {
				return
			}
			for _, ed := range n.Edges {
				next := ed.To
				if s.IsAwait(next) {
					// Record entry into the next thread's cs1 without
					// traversing it.
					continue
				}
				visit(next, seg)
			}
		}
		// The await node itself belongs to cs1 (the source ECS).
		segs[segIdxOf[t.ECSIdx[s.Source]]] = true
		visit(start.Edges[0].To, segIdxOf[t.ECSIdx[s.Source]])
		for k := range segs {
			th.Segments = append(th.Segments, k)
		}
		sort.Ints(th.Segments)
		for k := range edges {
			th.Edges = append(th.Edges, k)
		}
		sort.Slice(th.Edges, func(i, j int) bool {
			if th.Edges[i][0] != th.Edges[j][0] {
				return th.Edges[i][0] < th.Edges[j][0]
			}
			return th.Edges[i][1] < th.Edges[j][1]
		})
		out = append(out, th)
	}
	return out
}
