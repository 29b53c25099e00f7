package petri

import "repro/internal/linalg"

// Structural invariants. T-invariants (firing-count vectors that return
// a marking to itself) drive the scheduling heuristics; P-invariants
// (weighted token conservation laws) certify structural properties such
// as the single-program-counter discipline of compiled processes and
// the channel/complement pairing of bounded channels.

// TInvariants returns the minimal-support non-negative T-invariant basis
// of the net: vectors x with C·x = 0, one entry per transition.
func (n *Net) TInvariants() []linalg.Vector {
	return linalg.TInvariantBasis(n.IncidenceMatrix())
}

// PInvariants returns the minimal-support non-negative P-invariant basis
// of the net: vectors y with yᵀ·C = 0, one entry per place. For every
// P-invariant y, the weighted token sum Σ y(p)·M(p) is constant over all
// reachable markings.
func (n *Net) PInvariants() []linalg.Vector {
	c := n.IncidenceMatrix()
	// Transpose: places become columns.
	ct := make([][]int, len(n.Transitions))
	for j := range ct {
		ct[j] = make([]int, len(n.Places))
		for i := range c {
			ct[j][i] = c[i][j]
		}
	}
	return linalg.TInvariantBasis(ct)
}
