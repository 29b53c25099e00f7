package linalg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorOps(t *testing.T) {
	v := Vector{2, -4, 6}
	if v.IsZero() {
		t.Error("non-zero vector reported zero")
	}
	if !(Vector{0, 0}).IsZero() {
		t.Error("zero vector not reported zero")
	}
	if got := v.Add(Vector{1, 1, 1}); got[0] != 3 || got[1] != -3 || got[2] != 7 {
		t.Errorf("Add = %v", got)
	}
	if got := v.Scale(2); got[2] != 12 {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Clone().Normalize(); got[0] != 1 || got[1] != -2 || got[2] != 3 {
		t.Errorf("Normalize = %v", got)
	}
	if got := v.Support(); len(got) != 3 {
		t.Errorf("Support = %v", got)
	}
}

func TestGCD(t *testing.T) {
	cases := [][3]int{{12, 18, 6}, {-12, 18, 6}, {0, 5, 5}, {7, 0, 7}, {1, 1, 1}, {0, 0, 0}}
	for _, c := range cases {
		if got := GCD(c[0], c[1]); got != c[2] {
			t.Errorf("GCD(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

// fig8Incidence is the incidence matrix of the Figure 8 net:
// places p1,p2,p3; transitions a,b,c,d,e.
func fig8Incidence() [][]int {
	return [][]int{
		// a   b   c   d   e
		{1, -1, -1, 0, 1}, // p1
		{0, 1, 0, -1, 0},  // p2
		{0, 0, 1, 0, -2},  // p3
	}
}

func TestTInvariantBasisFig8(t *testing.T) {
	c := fig8Incidence()
	basis := TInvariantBasis(c)
	if len(basis) == 0 {
		t.Fatal("no invariants found")
	}
	for _, b := range basis {
		if !mulMatVec(c, b).IsZero() {
			t.Errorf("C·%v != 0", b)
		}
		nonneg := true
		for _, x := range b {
			if x < 0 {
				nonneg = false
			}
		}
		if !nonneg {
			t.Errorf("invariant %v has negative entries", b)
		}
	}
	// The cycle a,b,d must be generated (a=1,b=1,d=1), and the cycle
	// a,c,c,e (a=1, c=2, e=1 — e returns one token to p1).
	foundABD, foundACE := false, false
	for _, b := range basis {
		if b[0] == 1 && b[1] == 1 && b[3] == 1 && b[2] == 0 && b[4] == 0 {
			foundABD = true
		}
		if b[0] == 1 && b[2] == 2 && b[4] == 1 && b[1] == 0 && b[3] == 0 {
			foundACE = true
		}
	}
	if !foundABD || !foundACE {
		t.Errorf("expected minimal invariants missing from basis %v", basis)
	}
}

func TestTInvariantBasisNoInvariant(t *testing.T) {
	// A pure producer: t adds a token to p, never removed. No invariant.
	c := [][]int{{1}}
	if basis := TInvariantBasis(c); len(basis) != 0 {
		t.Errorf("expected empty basis, got %v", basis)
	}
}

func TestTInvariantBasisEmpty(t *testing.T) {
	if basis := TInvariantBasis(nil); basis != nil {
		t.Errorf("nil matrix should give nil basis, got %v", basis)
	}
}

// TestTInvariantProperty: on random small incidence matrices, every
// returned vector is a non-negative non-zero solution of C·x = 0.
func TestTInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		places := 1 + rng.Intn(4)
		trans := 1 + rng.Intn(5)
		c := make([][]int, places)
		for i := range c {
			c[i] = make([]int, trans)
			for j := range c[i] {
				c[i][j] = rng.Intn(5) - 2
			}
		}
		for _, b := range TInvariantBasis(c) {
			if b.IsZero() || !mulMatVec(c, b).IsZero() {
				return false
			}
			for _, x := range b {
				if x < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestBinateCoverSimple(t *testing.T) {
	// Row: selecting column 0 requires selecting column 1.
	rows := []BinateRow{{Neg: []int{0}, Pos: []int{1}}}
	sel, ok := BinateCover(2, rows, []int{0})
	if !ok {
		t.Fatal("cover should exist")
	}
	has := map[int]bool{}
	for _, c := range sel {
		has[c] = true
	}
	if !has[0] || !has[1] {
		t.Errorf("cover = %v, want both columns", sel)
	}
}

func TestBinateCoverConflict(t *testing.T) {
	// Column 0 requires column 1; column 1 requires column 0 being
	// absent — impossible with seed {0,1}? Construct: selecting 1 is
	// forbidden outright (Neg only, no Pos).
	rows := []BinateRow{
		{Neg: []int{0}, Pos: []int{1}},
		{Neg: []int{1}, Pos: nil},
	}
	sel, ok := BinateCover(2, rows, []int{0})
	// The only feasible solutions drop both columns; the solver may
	// return the empty set after banning the offenders.
	if ok {
		for _, c := range sel {
			if c == 1 {
				t.Errorf("solution %v selects forbidden column 1", sel)
			}
			if c == 0 {
				t.Errorf("solution %v selects column 0 whose requirement is unsatisfiable", sel)
			}
		}
	}
}

func TestBinateCoverNoRows(t *testing.T) {
	sel, ok := BinateCover(3, nil, []int{2})
	if !ok || len(sel) != 1 || sel[0] != 2 {
		t.Errorf("trivial cover = %v %v", sel, ok)
	}
}

// TestBinateCoverProperty: returned solutions always satisfy every row.
func TestBinateCoverProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cols := 2 + rng.Intn(5)
		var rows []BinateRow
		for i := 0; i < rng.Intn(6); i++ {
			var r BinateRow
			r.Neg = append(r.Neg, rng.Intn(cols))
			for j := 0; j < rng.Intn(3); j++ {
				r.Pos = append(r.Pos, rng.Intn(cols))
			}
			rows = append(rows, r)
		}
		seed0 := []int{rng.Intn(cols)}
		sel, ok := BinateCover(cols, rows, seed0)
		if !ok {
			return true // failure is allowed; feasibility isn't guaranteed
		}
		has := map[int]bool{}
		for _, c := range sel {
			has[c] = true
		}
		for _, r := range rows {
			neg := false
			for _, c := range r.Neg {
				if has[c] {
					neg = true
				}
			}
			if !neg {
				continue
			}
			pos := false
			for _, c := range r.Pos {
				if has[c] {
					pos = true
				}
			}
			if !pos {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// mulMatVec returns C·x for a dense matrix C (rows × cols) and x of
// length cols: the check that x is a T-invariant, C·x = 0.
func mulMatVec(c [][]int, x Vector) Vector {
	out := make(Vector, len(c))
	for i, row := range c {
		s := 0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}
