package linalg

import (
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"
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
	if got := v.Clone(); !slices.Equal(got, v) || &got[0] == &v[0] {
		t.Errorf("Clone = %v", got)
	}
}

func TestGCD(t *testing.T) {
	cases := [][3]int64{{12, 18, 6}, {-12, 18, 6}, {0, 5, 5}, {7, 0, 7}, {1, 1, 1}, {0, 0, 0}}
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

// semiflowsOf runs Semiflows on a matrix given by rows and returns its
// semiflows as vectors.
func semiflowsOf(a [][]int) ([]Vector, bool) {
	rows, cols := len(a), len(a[0])
	var entries []Entry
	for i, r := range a {
		for j, v := range r {
			if v != 0 {
				entries = append(entries, Entry{i, j, v})
			}
		}
	}
	ys, ok := Semiflows(rows, cols, entries)
	var out []Vector
	for y := range slices.Chunk(ys, rows) {
		v := make(Vector, rows)
		for i, x := range y {
			v[i] = int(x)
		}
		out = append(out, v)
	}
	return out, ok
}

// TestSemiflows: the P-semiflows of a 4-place ring are its one cycle,
// and those of a place pair that trades one token of p for two of q
// (split: p -> 2q, merge: 2q -> p) are the weighted sum 2p + q. A place
// that a transition only feeds lies on none, and a place no transition
// changes is a semiflow of its own.
func TestSemiflows(t *testing.T) {
	for _, c := range []struct {
		name string
		a    [][]int // rows = places, cols = transitions
		want []Vector
	}{
		{"ring", [][]int{{-1, 0, 0, 1}, {1, -1, 0, 0}, {0, 1, -1, 0}, {0, 0, 1, -1}}, []Vector{{1, 1, 1, 1}}},
		{"weighted", [][]int{{-1, 1}, {2, -2}}, []Vector{{2, 1}}},
		{"no-semiflow", [][]int{{1}}, nil},
		{"self-loop", [][]int{{0, 0}, {1, -1}}, []Vector{{1, 0}}},
	} {
		got, ok := semiflowsOf(c.a)
		if !ok || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Semiflows = %v, %v; want %v", c.name, got, ok, c.want)
		}
	}
}

// forkJoinChain is the incidence matrix of a chain of stages: stage i
// forks the token of s_i into a_i and b_i and joins them into s_{i+1}.
// Each minimal P-semiflow picks a_i or b_i at every stage, so there
// are 2^stages of them.
func forkJoinChain(stages int) (int, int, []Entry) {
	var a []Entry
	for i := range stages {
		s, x, y, next := 3*i, 3*i+1, 3*i+2, 3*i+3
		fork, join := 2*i, 2*i+1
		a = append(a, Entry{s, fork, -1}, Entry{x, fork, 1}, Entry{y, fork, 1},
			Entry{x, join, -1}, Entry{y, join, -1}, Entry{next, join, 1})
	}
	return 3*stages + 1, 2 * stages, a
}

// ringMatrix is the incidence matrix of a ring of n places.
func ringMatrix(n int) (int, int, []Entry) {
	var a []Entry
	for t := range n {
		a = append(a, Entry{t, t, -1}, Entry{(t + 1) % n, t, 1})
	}
	return n, n, a
}

// TestSemiflowsBudget: Semiflows gives up, the same way on every run
// and within 10 ms, on a 20-stage fork-join chain (2^20 minimal
// semiflows) and on a 2,000-place ring, whose [C | I] matrix alone is
// past the work budget; a 6-stage chain is within it and has all 64.
func TestSemiflowsBudget(t *testing.T) {
	rows, cols, a := forkJoinChain(6)
	if ys, ok := Semiflows(rows, cols, a); !ok || len(ys) != 64*rows {
		t.Fatalf("6-stage chain: %d semiflows, ok %v; want 64", len(ys)/rows, ok)
	}
	for _, c := range []struct {
		name   string
		matrix func(int) (int, int, []Entry)
		size   int
	}{
		{"fork-join-20", forkJoinChain, 20},
		{"ring-2000", ringMatrix, 2000},
	} {
		rows, cols, a := c.matrix(c.size)
		fastest := time.Hour
		for range 3 {
			start := time.Now()
			ys, ok := Semiflows(rows, cols, a)
			fastest = min(fastest, time.Since(start))
			if ok || ys != nil {
				t.Fatalf("%s: Semiflows = %d entries, %v; want it to give up", c.name, len(ys), ok)
			}
		}
		t.Logf("%s: gave up in %v", c.name, fastest)
		if fastest > 10*time.Millisecond && !raceEnabled {
			t.Errorf("%s: giving up took %v, more than 10ms", c.name, fastest)
		}
	}
}

// TestSemiflowsLargeWeights: weights near MaxInt32 either give exact
// semiflows or make the procedure give up; no entry overflows. A chain
// p0 -M-> p1 -M-> p2 conserves p0·M² + p1·M + p2 only with a weight
// past int32, so Semiflows gives up; a single such step is exact.
// Random matrices of large and small weights check yᵀa = 0 in exact
// arithmetic for every semiflow returned.
func TestSemiflowsLargeWeights(t *testing.T) {
	const m = math.MaxInt32
	if got, ok := semiflowsOf([][]int{{-1}, {m}}); !ok || !reflect.DeepEqual(got, []Vector{{m, 1}}) {
		t.Errorf("one step: Semiflows = %v, %v; want [[%d 1]]", got, ok, m)
	}
	if got, ok := semiflowsOf([][]int{{-1, 0}, {m, -1}, {0, m}}); ok || got != nil {
		t.Errorf("two steps: Semiflows = %v, %v; want it to give up", got, ok)
	}
	weights := []int{0, 1, -1, 2, -3, m, -m, m - 1, -(m - 1), 1 << 20, -(1 << 20)}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(5), 1+rng.Intn(4)
		a := make([][]int, rows)
		for i := range a {
			a[i] = make([]int, cols)
			for j := range a[i] {
				a[i][j] = weights[rng.Intn(len(weights))]
			}
		}
		ys, _ := semiflowsOf(a)
		for _, y := range ys {
			if y.IsZero() {
				return false
			}
			for j := range cols {
				sum := new(big.Int)
				for i, w := range y {
					if w < 0 {
						return false
					}
					sum.Add(sum, new(big.Int).Mul(big.NewInt(int64(w)), big.NewInt(int64(a[i][j]))))
				}
				if sum.Sign() != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
