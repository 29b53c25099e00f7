package petri

// Place degrees and the irrelevant-marking criterion (Definitions 4.4 and
// 4.5 of the paper). The criterion prunes the schedule search without
// requiring a-priori place bounds: a marking is discarded if it covers an
// ancestor in the search tree and every strictly increased place is
// already saturated (at or beyond its degree).

// Degrees returns the degree of every place, indexed by place ID. The
// degree of place p is
//
//	max( maxInWeight(p) + maxOutWeight(p) - 1, M0(p) )
//
// Intuitively, once p holds maxOutWeight(p)-1 tokens it is one producer
// firing away from enabling any successor; accumulating beyond
// maxIn+maxOut-1 cannot enable anything new.
func (n *Net) Degrees() []int {
	maxIn := make([]int, len(n.Places))
	maxOut := make([]int, len(n.Places))
	for _, t := range n.Transitions {
		for _, a := range t.Out {
			maxIn[a.Place] = max(maxIn[a.Place], a.Weight)
		}
		for _, a := range t.In {
			maxOut[a.Place] = max(maxOut[a.Place], a.Weight)
		}
	}
	for i, p := range n.Places { // maxIn[i] becomes the degree of p
		maxIn[i] = max(maxIn[i]+maxOut[i]-1, p.Initial, 0)
	}
	return maxIn
}

// IrrelevantAgainst reports whether marking m is irrelevant with respect
// to a single earlier marking anc on the path from the root (Def. 4.5):
//
//	(a) m is reachable from anc      — guaranteed by the caller, who
//	    passes ancestors of the search-tree node;
//	(b) m covers anc;
//	(c) every place where m strictly exceeds anc is already saturated in
//	    anc (anc(p) >= degree(p)): pumping more tokens into a saturated
//	    place cannot enable anything new (see the Figure 7 discussion —
//	    "it covers ..., where places ... are already saturated").
func IrrelevantAgainst(m, anc Marking, degrees []int) bool {
	strictSomewhere := false
	for i := range m {
		if m[i] < anc[i] {
			return false
		}
		if m[i] > anc[i] {
			strictSomewhere = true
			if int(anc[i]) < degrees[i] {
				return false
			}
		}
	}
	// A marking equal to an ancestor is not irrelevant: it closes a
	// cycle, which is exactly what the scheduler wants.
	return strictSomewhere
}

// Irrelevant reports whether m is irrelevant with respect to any of the
// given ancestor markings (ordered root first, though order is
// immaterial).
//
// Fast path: condition (c) requires a strictly grown place p with
// anc(p) >= degree(p), and (b) gives m(p) > anc(p), so m must exceed
// the degree of some place outright. A marking within its degrees
// everywhere can be dismissed in O(|P|) without scanning the ancestor
// stack — on deep search paths this is the common case and turns the
// per-node pruning cost from O(depth·|P|) into O(|P|).
func Irrelevant(m Marking, ancestors []Marking, degrees []int) bool {
	over := false
	for i, v := range m {
		if int(v) > degrees[i] {
			over = true
			break
		}
	}
	if !over {
		return false
	}
	for _, anc := range ancestors {
		if IrrelevantAgainst(m, anc, degrees) {
			return true
		}
	}
	return false
}
