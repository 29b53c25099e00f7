// Package linalg provides the small integer linear-algebra kernel of
// the flow: one Farkas procedure (Martínez and Silva, 1982) that
// generates the minimal-support non-negative semiflows of an integer
// matrix, and a heuristic binate-covering solver. The scheduling
// heuristics take the T-invariant basis of a net from it and pick the
// candidate invariant of Section 5.5.2 of the paper by binate covering;
// package petri takes a net's P-semiflows from it, which bound the
// token counts of places no cap bounds.
package linalg

import (
	"math"
	"math/bits"
	"slices"
)

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

// GCD returns the greatest common divisor of a and b (non-negative).
func GCD(a, b int64) int64 {
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

// TInvariantBasis computes the set of minimal-support non-negative
// T-invariants of the incidence matrix C (rows = places, cols =
// transitions): vectors x >= 0, x != 0 with C·x = 0, each divided by
// the GCD of its entries, in ascending lexicographic order. Every
// semi-positive invariant is a non-negative rational combination of the
// result. It runs the Farkas procedure of Semiflows on Cᵀ without a
// work budget; a matrix whose combinations leave the int32 range has
// no basis (nil).
func TInvariantBasis(c [][]int) []Vector {
	nPlaces := len(c)
	nTrans := 0
	if nPlaces > 0 {
		nTrans = len(c[0])
	}
	if nTrans == 0 {
		return nil
	}
	var a []Entry
	for i, row := range c {
		for j, v := range row {
			if v != 0 {
				a = append(a, Entry{Row: j, Col: i, Val: v})
			}
		}
	}
	ys, ok := farkas(nTrans, nPlaces, a, -1)
	if !ok {
		return nil
	}
	var out []Vector
	for y := range slices.Chunk(ys, nTrans) {
		v := make(Vector, nTrans)
		for j, x := range y {
			v[j] = int(x)
		}
		out = append(out, v)
	}
	slices.SortFunc(out, slices.Compare)
	return slices.CompactFunc(out, slices.Equal)
}

// Entry is a non-zero entry of a sparse matrix: Val at row Row and
// column Col.
type Entry struct{ Row, Col, Val int }

// Semiflows returns the minimal-support semiflows of the rows×cols
// matrix whose non-zero entries are a, each cell at most once: the
// vectors y >= 0, y != 0 with yᵀa = 0 whose support contains no
// other's, each divided by the GCD of its entries. They come flat,
// semiflow k at [k*rows, (k+1)*rows), and one may come more than once.
// Of a net's incidence matrix C (rows = places) they are the minimal
// P-semiflows: the weighted token sum y·M is the same at every marking
// the net reaches.
//
// The procedure stops once it has spent semiflowWork units of work, or
// when a combination leaves the int32 range; it then reports false and
// returns nothing, so its cost on a net of any size stays bounded and
// the same from run to run.
func Semiflows(rows, cols int, a []Entry) ([]int32, bool) {
	return farkas(rows, cols, a, semiflowWork)
}

// semiflowWork is the work budget of Semiflows: one unit per cell of a
// row written or moved and per word of a support compared. It covers
// a ring of 250 places; a 20-stage fork-join chain, whose 2^20 minimal
// semiflows are far past it, gives up after about 2 ms and 1.1 MB
// allocated (2-vCPU Xeon, go1.24.0).
const semiflowWork = 1 << 20

// farkas runs the Farkas procedure on the rows×cols matrix of the
// entries a: starting from [a | I], it cancels one column at a time,
// replacing the rows that are non-zero in it by every positive
// combination of a positive and a negative one that is zero there, and
// drops each combination whose support (the non-zero coefficients of
// the I part) strictly contains another row's. After the last column
// the coefficient parts of the rows left are the minimal-support
// semiflows. A negative budget is unlimited; otherwise the run gives
// up, returning false, once the work would pass it. Every entry is kept
// within ±MaxInt32, so a combination of two rows, computed in int64,
// cannot overflow; one that leaves that range after division by its
// GCD ends the run too.
//
// A run makes two allocations, one of int32 cells and one of support
// words, from which it carves its tables, each the size of the matrix
// (one row for the combinations of a column); a table outgrows its
// share, doubling, only when a column makes more rows than that.
func farkas(rows, cols int, a []Entry, budget int) ([]int32, bool) {
	if rows == 0 {
		return nil, true
	}
	f := farkasRun{cols: cols, stride: cols + rows, words: (rows + 63) / 64, budget: budget}
	n, nw := rows*f.stride, rows*f.words
	if !f.spend(n) {
		return nil, false
	}
	buf := make([]int32, n+f.stride+3*rows)
	f.rows, buf = buf[:n:n], buf[n:]
	f.cand, buf = buf[:0:f.stride], buf[f.stride:]
	f.pc, buf = buf[:rows:rows], buf[rows:]
	f.cpc, f.idx = buf[:0:rows], buf[rows:rows]
	sbuf := make([]uint64, 2*nw)
	f.sup, f.csup = sbuf[:nw:nw], sbuf[nw:nw]
	for _, e := range a {
		if e.Val < -math.MaxInt32 || e.Val > math.MaxInt32 {
			return nil, false
		}
		f.rows[e.Row*f.stride+e.Col] = int32(e.Val)
	}
	for i := range rows {
		f.rows[i*f.stride+cols+i] = 1
		f.sup[i*f.words+i>>6] = 1 << (uint(i) & 63)
		f.pc[i] = 1
	}
	for c := range cols {
		if !f.cancel(c) {
			return nil, false
		}
	}
	// Every residual is zero now: keep the coefficients, packed to the
	// front of the arena.
	k := len(f.pc)
	for i := range k {
		copy(f.rows[i*rows:], f.rows[i*f.stride+cols:(i+1)*f.stride])
	}
	return f.rows[:k*rows], true
}

// farkasRun is the state of one run of farkas. The rows of the current
// generation are stride cells each in rows, their residual (cols) then
// their coefficients; sup holds each row's support in words bits and
// pc its size. cand, csup and cpc hold the same for the combinations
// of the column being cancelled, and idx its positive rows, then its
// negative ones.
type farkasRun struct {
	cols, stride, words int
	work, budget        int
	rows, cand          []int32
	sup, csup           []uint64
	pc, cpc, idx        []int32
}

// spend charges n units of work and reports whether the budget holds
// them.
func (f *farkasRun) spend(n int) bool {
	f.work += n
	return f.budget < 0 || f.work <= f.budget
}

// cancel makes column c zero in every row. The rows zero in it stay;
// each (positive, negative) pair becomes a candidate, whose support is
// the union of the two. A candidate is dropped when a row that stays
// or another candidate has a strictly smaller support inside its own.
// A row that stays is never dropped: the support of a candidate
// contains its positive row's, and that row survived the previous
// column beside it. Nor does a dropped candidate have to be compared
// with: a candidate of minimal support below it is kept. The rows
// non-zero in c then leave, each replaced by the last row, and the kept
// candidates follow the rows that stay.
func (f *farkasRun) cancel(c int) bool {
	s, w := f.stride, f.words
	n := len(f.pc)
	f.idx = f.idx[:0]
	for i := range n {
		if f.rows[i*s+c] > 0 {
			f.idx = append(f.idx, int32(i))
		}
	}
	np := len(f.idx)
	for i := range n {
		if f.rows[i*s+c] < 0 {
			f.idx = append(f.idx, int32(i))
		}
	}
	pos, neg := f.idx[:np], f.idx[np:]
	cands := len(pos) * len(neg)
	if !f.spend(n + cands*w) {
		return false
	}
	f.cand, f.csup, f.cpc = f.cand[:0], f.csup[:0], f.cpc[:0]
	for _, p := range pos {
		for _, q := range neg {
			k := 0
			for j := range w {
				x := f.sup[int(p)*w+j] | f.sup[int(q)*w+j]
				f.csup = append(f.csup, x)
				k += bits.OnesCount64(x)
			}
			f.cpc = append(f.cpc, int32(k))
		}
	}
	// The kept candidates' supports and sizes move down as they are
	// kept: [0, kept) are the kept ones and (i, cands) those still to
	// judge.
	kept := 0
	for i := range cands {
		if !f.spend((n + cands) * w) {
			return false
		}
		if !f.minimal(c, i, kept) {
			continue
		}
		p, q := pos[i/len(neg)], neg[i%len(neg)]
		if !f.spend(2*s) || !f.combine(int(p), int(q), c) {
			return false
		}
		copy(f.csup[kept*w:(kept+1)*w], f.csup[i*w:(i+1)*w])
		f.cpc[kept] = f.cpc[i]
		kept++
	}
	if !f.spend(len(f.idx) * s) {
		return false
	}
	for i := n - 1; i >= 0; i-- {
		if f.rows[i*s+c] == 0 {
			continue
		}
		// Every row after i stays, so the last one moves into i.
		last := len(f.pc) - 1
		copy(f.rows[i*s:(i+1)*s], f.rows[last*s:])
		copy(f.sup[i*w:(i+1)*w], f.sup[last*w:])
		f.pc[i] = f.pc[last]
		f.rows, f.sup, f.pc = f.rows[:last*s], f.sup[:last*w], f.pc[:last]
	}
	f.rows = append(f.rows, f.cand...)
	f.sup = append(f.sup, f.csup[:kept*w]...)
	f.pc = append(f.pc, f.cpc[:kept]...)
	return true
}

// minimal reports whether candidate i's support strictly contains no
// support of a row zero in column c, of a kept candidate, or of a
// candidate after i.
func (f *farkasRun) minimal(c, i, kept int) bool {
	s, w := f.stride, f.words
	si, ki := f.csup[i*w:(i+1)*w], f.cpc[i]
	for j, k := range f.pc {
		if k < ki && f.rows[j*s+c] == 0 && subset(f.sup[j*w:(j+1)*w], si) {
			return false
		}
	}
	for j := 0; j < len(f.cpc); j++ {
		if j == kept {
			j = i // skip the dropped candidates and i itself
			continue
		}
		if f.cpc[j] < ki && subset(f.csup[j*w:(j+1)*w], si) {
			return false
		}
	}
	return true
}

// subset reports whether the bits of a are all in b.
func subset(a, b []uint64) bool {
	for k, x := range a {
		if x&^b[k] != 0 {
			return false
		}
	}
	return true
}

// combine appends to cand the positive combination of rows p (positive
// in column c) and q (negative in it) that is zero in column c, divided
// by the GCD of its coefficients. It reports false when an entry leaves
// ±MaxInt32.
func (f *farkasRun) combine(p, q, c int) bool {
	s := f.stride
	rp, rq := f.rows[p*s:(p+1)*s], f.rows[q*s:(q+1)*s]
	kp, kq := -int64(rq[c]), int64(rp[c])
	g := GCD(kp, kq)
	kp, kq = kp/g, kq/g
	g = 0
	for j := f.cols; j < s && g != 1; j++ {
		g = GCD(g, kp*int64(rp[j])+kq*int64(rq[j]))
	}
	for j := range s {
		x := (kp*int64(rp[j]) + kq*int64(rq[j])) / g
		if x < -math.MaxInt32 || x > math.MaxInt32 {
			return false
		}
		f.cand = append(f.cand, int32(x))
	}
	return true
}
