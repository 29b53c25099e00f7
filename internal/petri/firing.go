package petri

import (
	"fmt"
	mathbits "math/bits"
	"slices"
)

// PlaceDelta is one entry of a transition's token effect: firing the
// transition changes place Place by Delta tokens.
type PlaceDelta struct {
	Place int32
	Delta int
}

// AppendDeltas appends t's token effect to dst and returns the extended
// slice: column t of the incidence matrix C in M' = M + C·e_t, as one
// entry per place whose count firing t changes, postset weight minus
// preset weight. A self-loop cancels and leaves no entry. It is the one
// definition of what firing t does: the FiringTable, the incidence
// matrix and code generation all derive the effect from it. It relies
// on each place carrying at most one arc each way, which AddArc and
// AddArcTP guarantee and Net.Validate checks.
func (t *Transition) AppendDeltas(dst []PlaceDelta) []PlaceDelta {
	for _, a := range t.In {
		if d := t.OutWeight(a.Place) - a.Weight; d != 0 {
			dst = append(dst, PlaceDelta{Place: int32(a.Place), Delta: d})
		}
	}
	for _, a := range t.Out {
		if t.Weight(a.Place) == 0 {
			dst = append(dst, PlaceDelta{Place: int32(a.Place), Delta: a.Weight})
		}
	}
	return dst
}

// FiringTable is what a search needs per transition to fire it and to
// classify the successor in time proportional to the firing rather than
// to the net. It depends only on the net and its ECS partition: a
// search builds one and passes it down, to Drive and to a
// FrontierRunner. Per transition t it holds, in flat
// pointer-free arrays:
//
//   - the deltas of t (AppendDeltas), its positive ones first — the rise
//     list: a successor of a marking within its caps can leave them only
//     at those places;
//   - Δ(t): HashMarking is additive, so the successor of a marking
//     hashed h hashes to h + Δ(t), exactly;
//   - the index of t's ECS;
//   - the touched ECSs, whose enablement firing t can change: those with
//     a preset place among t's deltas. A child's enabled-ECS bitset is
//     its parent's with only those re-evaluated.
//
// Enabled-ECS bitsets are []uint64 slices of Stride() words; bit i is
// ECS i of the partition. A table is immutable once built and safe for
// concurrent use.
type FiringTable struct {
	net     *Net
	part    []*ECS
	stride  int
	trans   []firingEntry
	deltas  []PlaceDelta
	touched []int32
}

// firingEntry is one transition's row: deltas[lo:hi], of which
// deltas[lo:rise] are positive, and touched[tlo:thi], ascending.
type firingEntry struct {
	hash         uint64
	lo, rise, hi int32
	tlo, thi     int32
	ecs          int32
}

// NewFiringTable builds the table of n's transitions under part, n's
// ECSPartition.
func NewFiringTable(n *Net, part []*ECS) *FiringTable {
	f := &FiringTable{net: n, part: part, stride: (len(part) + 63) / 64, trans: make([]firingEntry, len(n.Transitions))}
	placeECS := make([][]int32, len(n.Places))
	for _, e := range part {
		for _, t := range e.Trans {
			f.trans[t].ecs = int32(e.Index)
		}
		// Equal conflict: one member's preset is every member's.
		for _, a := range n.Transitions[e.Trans[0]].In {
			placeECS[a.Place] = append(placeECS[a.Place], int32(e.Index))
		}
	}
	seen := make([]bool, len(part))
	var ds []PlaceDelta
	for ti, t := range n.Transitions {
		e := &f.trans[ti]
		ds = t.AppendDeltas(ds[:0])
		e.lo = int32(len(f.deltas))
		for _, d := range ds {
			if d.Delta > 0 {
				f.deltas = append(f.deltas, d)
			}
		}
		e.rise = int32(len(f.deltas))
		for _, d := range ds {
			if d.Delta < 0 {
				f.deltas = append(f.deltas, d)
			}
		}
		e.hi = int32(len(f.deltas))
		e.tlo = int32(len(f.touched))
		for _, d := range ds {
			e.hash += uint64(d.Delta) * placeWeight(int(d.Place))
			for _, ei := range placeECS[d.Place] {
				if !seen[ei] {
					seen[ei] = true
					f.touched = append(f.touched, ei)
				}
			}
		}
		e.thi = int32(len(f.touched))
		for _, ei := range f.touched[e.tlo:] {
			seen[ei] = false
		}
		slices.Sort(f.touched[e.tlo:])
	}
	return f
}

// Net returns the net the table was built from.
func (f *FiringTable) Net() *Net { return f.net }

// Stride returns the enabled-ECS bitset length in uint64 words.
func (f *FiringTable) Stride() int { return f.stride }

// ECSOf returns the partition index of transition t's ECS.
func (f *FiringTable) ECSOf(t int) int { return int(f.trans[t].ecs) }

// Deltas returns transition t's token effect, positive deltas first.
// Callers must not mutate it.
func (f *FiringTable) Deltas(t int) []PlaceDelta {
	e := &f.trans[t]
	return f.deltas[e.lo:e.hi]
}

// Fire writes the successor of m under transition t into dst, reusing
// its storage when it has room, and returns it; dst may be m itself.
// Like Marking.FireInto it does not check that t is enabled at m.
func (f *FiringTable) Fire(dst, m Marking, t int) Marking {
	dst = append(dst[:0], m...)
	e := &f.trans[t]
	for _, d := range f.deltas[e.lo:e.hi] {
		dst[d.Place] += int32(d.Delta)
	}
	return dst
}

// byteFire is the outcome of fireBytes.
type byteFire uint8

const (
	fireFits  byteFire = iota // the successor's row is written
	fireVeto                  // a count passes its cap
	fireSpill                 // a count within its cap passes its field
)

// fireBytes is Fire on a row of s, a narrow store: it writes the
// successor of row under transition t into dst, which has len(row),
// field by field. Each count of t's rise list is checked first against
// its cap in caps (see ExpandSpec.Caps), past which the successor is
// vetoed, and then against its field's max, past which it does not fit
// the row and the int32 merge takes it over; either way dst is left
// partly written. A count t lowers cannot go below zero, since t is
// enabled at row, so it never borrows from a neighbouring field. row
// must be within every cap.
func (f *FiringTable) fireBytes(dst, row []uint8, t int, s *MarkingStore, caps []int) byteFire {
	copy(dst, row)
	e := &f.trans[t]
	for _, d := range f.deltas[e.lo:e.rise] {
		fd := s.fields[d.Place]
		v := int(dst[fd.off]>>fd.shift&fd.max) + d.Delta
		if v > int(ceiling(caps[d.Place])) {
			return fireVeto
		}
		if v > int(fd.max) {
			return fireSpill
		}
		dst[fd.off] += uint8(d.Delta) << fd.shift
	}
	for _, d := range f.deltas[e.rise:e.hi] {
		fd := s.fields[d.Place]
		dst[fd.off] -= uint8(-d.Delta) << fd.shift
	}
	return fireFits
}

// wordFiring is a FiringTable compiled once per search for the words of
// a one-word store under a spec's caps, so the inline merge fires,
// vetoes and derives enabled sets in registers, with no field lookup.
type wordFiring struct {
	ft    *FiringTable
	trans []wordTrans
	rise  []wordRise
	// ECS ei's preset arcs are arcs[ecs[ei]:ecs[ei+1]].
	arcs []wordArc
	ecs  []int32
}

// wordTrans is one transition's terms: its rising deltas rise[lo:hi],
// and add, Σ delta·2^pos mod 2⁶⁴ over its deltas at their fields' first
// bits. A firing that fits borrows or carries across no field, so one
// addition applies every delta.
type wordTrans struct {
	add    uint64
	lo, hi int32
}

// wordRise is one rising delta: its field (first bit and max), the
// delta, its place's cap ceiling, and top, the largest count the delta
// keeps within both, or -1.
type wordRise struct {
	shift, max uint8
	top        int32
	delta      uint32
	ceil       uint32
}

// wordArc is one preset arc of an ECS: the ECS is enabled at a word w
// when w&mask >= need for each of its arcs. An arc whose weight its
// field cannot hold has mask 0 and need 1.
type wordArc struct{ mask, need uint64 }

// compileWord compiles f for s, a one-word store, under caps (see
// ExpandSpec.Caps).
func (f *FiringTable) compileWord(s *MarkingStore, caps []int) *wordFiring {
	wf := &wordFiring{ft: f, trans: make([]wordTrans, len(f.trans)), ecs: make([]int32, len(f.part)+1)}
	for t := range f.trans {
		e, wt := &f.trans[t], &wf.trans[t]
		wt.lo = int32(len(wf.rise))
		for i, d := range f.deltas[e.lo:e.hi] {
			fd := s.fields[d.Place]
			wt.add += uint64(d.Delta) << fd.pos()
			if int32(i) < e.rise-e.lo {
				ceil := ceiling(caps[d.Place])
				top := max(int64(min(ceil, uint32(fd.max)))-int64(d.Delta), -1)
				wf.rise = append(wf.rise, wordRise{shift: uint8(fd.pos()), max: fd.max, top: int32(top), delta: uint32(d.Delta), ceil: ceil})
			}
		}
		wt.hi = int32(len(wf.rise))
	}
	for ei, E := range f.part {
		wf.ecs[ei] = int32(len(wf.arcs))
		for _, a := range f.net.Transitions[E.Trans[0]].In {
			fd, arc := s.fields[a.Place], wordArc{need: 1}
			if uint(a.Weight) <= uint(fd.max) {
				arc = wordArc{mask: uint64(fd.max) << fd.pos(), need: uint64(a.Weight) << fd.pos()}
			}
			wf.arcs = append(wf.arcs, arc)
		}
	}
	wf.ecs[len(f.part)] = int32(len(wf.arcs))
	return wf
}

// fire is fireBytes on a word: it returns the successor of w under
// transition t, or, with fireVeto or fireSpill, why it did not write
// one. Each rising count is checked against its cap first, then its
// field. w must be within every cap, and t enabled at it.
func (wf *wordFiring) fire(w uint64, t int) (uint64, byteFire) {
	e := &wf.trans[t]
	for _, r := range wf.rise[e.lo:e.hi] {
		if v := int32(w >> r.shift & uint64(r.max)); v > r.top {
			if uint64(v)+uint64(r.delta) > uint64(r.ceil) {
				return 0, fireVeto
			}
			return 0, fireSpill
		}
	}
	return w + e.add, fireFits
}

// update is Update for a successor held as a word w: it tests each
// touched ECS's preset arcs on the word.
func (wf *wordFiring) update(dst, src []uint64, t int, w uint64) {
	f := wf.ft
	copy(dst[:f.stride], src[:f.stride])
	e := &f.trans[t]
	for _, ei := range f.touched[e.tlo:e.thi] {
		on := true
		for _, a := range wf.arcs[wf.ecs[ei]:wf.ecs[ei+1]] {
			on = on && w&a.mask >= a.need
		}
		if b := uint64(1) << (uint(ei) & 63); on {
			dst[ei>>6] |= b
		} else {
			dst[ei>>6] &^= b
		}
	}
}

// Hash returns the HashMarking value of the successor of firing
// transition t at a marking whose HashMarking value is h.
func (f *FiringTable) Hash(h uint64, t int) uint64 { return h + f.trans[t].hash }

// Veto reports whether child, the successor of firing transition t,
// exceeds spec's caps or wrapped past MaxTokens (see ExpandSpec.Veto).
// Unless full is set, its parent must have been within every cap, and
// only t's rise list is checked; full runs the whole ExpandSpec.Veto
// scan, for the successors of a marking that is itself over a cap (only
// a root can be: every other state passed a veto).
func (f *FiringTable) Veto(spec *ExpandSpec, child Marking, t int, full bool) bool {
	if full {
		return spec.Veto(child)
	}
	e := &f.trans[t]
	for _, d := range f.deltas[e.lo:e.rise] {
		if uint32(child[d.Place]) > ceiling(spec.Caps[d.Place]) {
			return true
		}
	}
	return false
}

// Overflow reports whether child, the successor of firing t at a
// marking within MaxTokens, wrapped a count past MaxTokens: it returns
// an error wrapping ErrTokenOverflow that names the first such place of
// t's rise list, or nil. A parent count plus a delta of at most
// MaxTokens stays below 2³², so a wrapped count reads negative. A
// non-nil spec limits the check to the places it leaves unbounded (see
// ExpandSpec.Caps): past a cap, a wrapped count is a veto.
// Searches call it only on a veto or, without caps, per firing.
func (f *FiringTable) Overflow(spec *ExpandSpec, child Marking, t int) error {
	e := &f.trans[t]
	for _, d := range f.deltas[e.lo:e.rise] {
		if child[d.Place] < 0 && (spec == nil || spec.unbounded(int(d.Place))) {
			return fmt.Errorf("petri: place %s: %w", f.net.Places[d.Place].Name, ErrTokenOverflow)
		}
	}
	return nil
}

// Init writes the enabled-ECS set of m into bits with a full partition
// scan — the seeding of an exploration root.
func (f *FiringTable) Init(bits []uint64, m Marking) {
	clear(bits[:f.stride])
	for _, e := range f.part {
		if e.Enabled(f.net, m) {
			bits[e.Index>>6] |= 1 << (uint(e.Index) & 63)
		}
	}
}

// Update writes the enabled-ECS set of m into dst, where m was reached
// from a marking with set src by firing transition t: only the ECSs t
// touches are re-evaluated, and the result equals Init's. dst and src
// must not overlap.
func (f *FiringTable) Update(dst, src []uint64, t int, m Marking) {
	copy(dst[:f.stride], src[:f.stride])
	e := &f.trans[t]
	for _, ei := range f.touched[e.tlo:e.thi] {
		w, b := ei>>6, uint64(1)<<(uint(ei)&63)
		// Equal conflict: one member's preset is every member's.
		if m.Enabled(f.net.Transitions[f.part[ei].Trans[0]]) {
			dst[w] |= b
		} else {
			dst[w] &^= b
		}
	}
}

// updateBytes is Update for a successor held as a row of s, a narrow
// store: it reads each preset count from its field.
func (f *FiringTable) updateBytes(dst, src []uint64, t int, row []uint8, s *MarkingStore) {
	copy(dst[:f.stride], src[:f.stride])
	e := &f.trans[t]
	for _, ei := range f.touched[e.tlo:e.thi] {
		w, b := ei>>6, uint64(1)<<(uint(ei)&63)
		// Equal conflict: one member's preset is every member's.
		on := true
		for _, a := range f.net.Transitions[f.part[ei].Trans[0]].In {
			if s.count(row, a.Place) < a.Weight {
				on = false
				break
			}
		}
		if on {
			dst[w] |= b
		} else {
			dst[w] &^= b
		}
	}
}

// ForEachMaskedBit calls fn with each set bit index of bits&mask in
// ascending order — the canonical walk over an enabled-ECS bitset
// filtered by a fireable/allowed mask. Drive's inline expansion, the
// dist worker's expansion and the EP engine all use it, so their emit
// orders agree by construction.
func ForEachMaskedBit(bits, mask []uint64, fn func(i int)) {
	for w := range bits {
		x := bits[w] & mask[w]
		for x != 0 {
			b := mathbits.TrailingZeros64(x)
			x &= x - 1
			fn(w*64 + b)
		}
	}
}
