package petri

import (
	mathbits "math/bits"
	"sort"
)

// Incremental enabled-ECS maintenance. Every exploration loop needs the
// set of ECSs enabled at each visited marking. Testing the full
// partition at every state costs O(|ECS| * |preset|) per state, yet
// firing one transition only changes the token count of the places on
// its (non-self-loop) arcs — so only ECSs whose presets intersect those
// places can change enablement status. The EnabledTracker precomputes a
// place -> ECS reverse index once per net and maintains per-marking
// enabled sets as bitsets: a child's set is its parent's set with the
// few touched ECSs re-evaluated.

// EnabledTracker maintains enabled-ECS bitsets incrementally across
// firings. Build one per (net, partition) pair with NewEnabledTracker;
// it is immutable afterwards and safe for concurrent use.
//
// Bitsets are []uint64 slices of Stride() words; bit i is ECS i of the
// partition the tracker was built with. Source ECSs have an empty
// preset, are always enabled, and are set by Init and never touched by
// Update.
type EnabledTracker struct {
	net    *Net
	part   []*ECS
	stride int
	ecsOf  []int32 // transition ID -> ECS index
	// touched[t] lists the ECS indexes whose enablement can change when
	// transition t fires: those with a preset arc on a place whose token
	// count t changes (self-loops change nothing and are excluded).
	touched [][]int32
}

// NewEnabledTracker builds the reverse index for the net under the
// given ECS partition (as returned by Net.ECSPartition).
func NewEnabledTracker(n *Net, part []*ECS) *EnabledTracker {
	tr := &EnabledTracker{
		net:    n,
		part:   part,
		stride: (len(part) + 63) / 64,
		ecsOf:  make([]int32, len(n.Transitions)),
	}
	for i := range tr.ecsOf {
		tr.ecsOf[i] = -1
	}
	placeECS := make([][]int32, len(n.Places))
	for _, e := range part {
		for _, t := range e.Trans {
			tr.ecsOf[t] = int32(e.Index)
		}
		// Equal-conflict: one member's preset is every member's preset.
		for _, a := range n.Transitions[e.Trans[0]].In {
			placeECS[a.Place] = append(placeECS[a.Place], int32(e.Index))
		}
	}
	tr.touched = make([][]int32, len(n.Transitions))
	seen := make([]bool, len(part))
	for _, t := range n.Transitions {
		var out []int32
		visit := func(p int) {
			for _, e := range placeECS[p] {
				if !seen[e] {
					seen[e] = true
					out = append(out, e)
				}
			}
		}
		for _, a := range t.In {
			if a.Weight != t.OutWeight(a.Place) {
				visit(a.Place)
			}
		}
		for _, a := range t.Out {
			if a.Weight != t.Weight(a.Place) {
				visit(a.Place)
			}
		}
		for _, e := range out {
			seen[e] = false
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		tr.touched[t.ID] = out
	}
	return tr
}

// Stride returns the bitset length in uint64 words.
func (tr *EnabledTracker) Stride() int { return tr.stride }

// NumECS returns the partition size the tracker was built with.
func (tr *EnabledTracker) NumECS() int { return len(tr.part) }

// ECSOf returns the partition index of the ECS containing transition t.
func (tr *EnabledTracker) ECSOf(t int) int { return int(tr.ecsOf[t]) }

// Touched returns the ECS indexes re-evaluated when t fires
// (diagnostics; callers must not mutate the slice).
func (tr *EnabledTracker) Touched(t int) []int32 { return tr.touched[t] }

// Init writes the enabled set of m into bits with a full partition
// scan — the once-per-root seeding of an exploration.
func (tr *EnabledTracker) Init(bits []uint64, m Marking) {
	for i := range bits[:tr.stride] {
		bits[i] = 0
	}
	for _, e := range tr.part {
		if e.Enabled(tr.net, m) {
			bits[e.Index>>6] |= 1 << (uint(e.Index) & 63)
		}
	}
}

// Update writes the enabled set of m into dst, where m was reached from
// a marking with enabled set src by firing transition t: only the ECSs
// touched by t are re-evaluated. dst and src must not overlap.
func (tr *EnabledTracker) Update(dst, src []uint64, t int, m Marking) {
	copy(dst[:tr.stride], src[:tr.stride])
	for _, ei := range tr.touched[t] {
		w, b := ei>>6, uint64(1)<<(uint(ei)&63)
		if tr.part[ei].Enabled(tr.net, m) {
			dst[w] |= b
		} else {
			dst[w] &^= b
		}
	}
}

// HasBit reports whether bit i of the bitset is set.
func HasBit(bits []uint64, i int) bool {
	return bits[i>>6]&(1<<(uint(i)&63)) != 0
}

// ForEachMaskedBit calls fn with each set bit index of bits&mask in
// ascending order — the canonical walk over an enabled-ECS bitset
// filtered by a fireable/allowed mask. Drive's inline expansion and
// the dist worker's expansion both use it, so their emit orders agree
// by construction.
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
