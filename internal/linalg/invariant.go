// Package linalg provides the small integer linear-algebra kernel needed
// by the scheduling heuristics: a Farkas-style generator of the
// non-negative T-invariant basis of a Petri net incidence matrix, GCD
// normalization, and a heuristic binate-covering solver used to pick the
// candidate invariant of Section 5.5.2 of the paper.
package linalg

import "sort"

// Vector is a dense integer vector.
type Vector []int

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// IsZero reports whether every component is zero.
func (v Vector) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// Add returns v + o.
func (v Vector) Add(o Vector) Vector {
	c := v.Clone()
	for i := range o {
		c[i] += o[i]
	}
	return c
}

// Scale returns k*v.
func (v Vector) Scale(k int) Vector {
	c := v.Clone()
	for i := range c {
		c[i] *= k
	}
	return c
}

// Support returns the indices of the non-zero components, ascending.
func (v Vector) Support() []int {
	var out []int
	for i, x := range v {
		if x != 0 {
			out = append(out, i)
		}
	}
	return out
}

// GCD returns the greatest common divisor of a and b (non-negative).
func GCD(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Normalize divides v by the GCD of its components (no-op for the zero
// vector) and returns v.
func (v Vector) Normalize() Vector {
	g := 0
	for _, x := range v {
		g = GCD(g, x)
	}
	if g > 1 {
		for i := range v {
			v[i] /= g
		}
	}
	return v
}

// TInvariantBasis computes the set of minimal-support non-negative
// T-invariants of the incidence matrix C (rows = places, cols =
// transitions): vectors x >= 0, x != 0 with C·x = 0. Every semi-positive
// invariant is a non-negative rational combination of the result.
//
// The algorithm is the classical Farkas / Martinez-Silva procedure:
// starting from [Cᵀ | I], rows are combined pairwise to cancel each
// place column; rows whose support strictly contains another's are
// discarded to keep only minimal-support generators.
func TInvariantBasis(c [][]int) []Vector {
	nPlaces := len(c)
	nTrans := 0
	if nPlaces > 0 {
		nTrans = len(c[0])
	}
	if nTrans == 0 {
		return nil
	}
	// farkasRow pairs the residual place-effect vector (a) with the
	// combination coefficients accumulated so far (b).
	rows := make([]farkasRow, nTrans)
	for j := 0; j < nTrans; j++ {
		a := make(Vector, nPlaces)
		for i := 0; i < nPlaces; i++ {
			a[i] = c[i][j]
		}
		b := make(Vector, nTrans)
		b[j] = 1
		rows[j] = farkasRow{a: a, b: b}
	}
	for col := 0; col < nPlaces; col++ {
		var zero, pos, neg []farkasRow
		for _, r := range rows {
			switch {
			case r.a[col] == 0:
				zero = append(zero, r)
			case r.a[col] > 0:
				pos = append(pos, r)
			default:
				neg = append(neg, r)
			}
		}
		next := zero
		for _, rp := range pos {
			for _, rn := range neg {
				// Combine with positive coefficients so rp.a[col] and
				// rn.a[col] cancel.
				kp := -rn.a[col] // > 0
				kn := rp.a[col]  // > 0
				g := GCD(kp, kn)
				kp, kn = kp/g, kn/g
				na := rp.a.Scale(kp).Add(rn.a.Scale(kn))
				nb := rp.b.Scale(kp).Add(rn.b.Scale(kn))
				nb2 := nb.Clone().Normalize()
				// Rescale na consistently with nb's normalization.
				gg := 0
				for _, x := range nb {
					gg = GCD(gg, x)
				}
				if gg > 1 {
					for i := range na {
						na[i] /= gg
					}
				}
				next = append(next, farkasRow{a: na, b: nb2})
			}
		}
		rows = pruneNonMinimal(next)
	}
	var out []Vector
	for _, r := range rows {
		if !r.b.IsZero() {
			out = append(out, r.b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return lessVec(out[i], out[j]) })
	out = dedupVectors(out)
	return out
}

func lessVec(a, b Vector) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func dedupVectors(vs []Vector) []Vector {
	var out []Vector
	for i, v := range vs {
		if i > 0 && lessEq(out[len(out)-1], v) && lessEq(v, out[len(out)-1]) {
			continue
		}
		out = append(out, v)
	}
	return out
}

func lessEq(a, b Vector) bool { return !lessVec(b, a) }

type farkasRow struct {
	a Vector
	b Vector
}

// pruneNonMinimal removes rows whose invariant support strictly contains
// the support of another row, bounding the combinatorial blowup.
func pruneNonMinimal(rows []farkasRow) []farkasRow {
	keep := make([]bool, len(rows))
	for i := range keep {
		keep[i] = true
	}
	for i := range rows {
		if !keep[i] {
			continue
		}
		si := rows[i].b.Support()
		for j := range rows {
			if i == j || !keep[j] || !keep[i] {
				continue
			}
			sj := rows[j].b.Support()
			if len(sj) == 0 {
				continue
			}
			if strictSuperset(si, sj) {
				keep[i] = false
			}
		}
	}
	var out []farkasRow
	for i, r := range rows {
		if keep[i] {
			out = append(out, r)
		}
	}
	return out
}

// strictSuperset reports whether sorted int set a strictly contains b.
func strictSuperset(a, b []int) bool {
	if len(a) <= len(b) {
		return false
	}
	i := 0
	for _, x := range b {
		for i < len(a) && a[i] < x {
			i++
		}
		if i >= len(a) || a[i] != x {
			return false
		}
	}
	return true
}
