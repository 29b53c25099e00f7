package petri

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Marking is a token count per place, indexed by place ID. Markings are
// value-like: mutating methods operate in place, functional ones return
// fresh slices. A count takes TokenBytes bytes, so it is at most
// MaxTokens; every way a count enters the program (Net.Validate, the
// parsers, DecodeMarking) rejects a larger one, and an exploration that
// would exceed it stops with ErrTokenOverflow.
type Marking []int32

// MaxTokens is the largest token count a place can hold, and so the
// largest initial marking, bound and arc weight Net.Validate accepts.
const MaxTokens = math.MaxInt32

// TokenBytes is the size of one token count in a Marking. Every byte
// account of stored token vectors derives from it.
const TokenBytes = 4

// Clone returns a copy of m.
func (m Marking) Clone() Marking {
	c := make(Marking, len(m))
	copy(c, m)
	return c
}

// Equal reports whether m and o assign the same count to every place.
func (m Marking) Equal(o Marking) bool {
	if len(m) != len(o) {
		return false
	}
	for i := range m {
		if m[i] != o[i] {
			return false
		}
	}
	return true
}

// Total returns the total number of tokens.
func (m Marking) Total() int {
	s := 0
	for _, v := range m {
		s += int(v)
	}
	return s
}

// Key returns a canonical string usable as a map key. It allocates and
// formats; hot paths intern markings in a MarkingStore and compare
// MarkIDs instead — Key survives for formatting and tests.
func (m Marking) Key() string {
	var sb strings.Builder
	for i, v := range m {
		if v != 0 {
			fmt.Fprintf(&sb, "%d:%d,", i, v)
		}
	}
	return sb.String()
}

// Format renders the marking as the multiset of marked place names, in
// the "p1 p2 p2" style of the paper's figures. The empty marking renders
// as "0".
func (m Marking) Format(n *Net) string {
	var names []string
	for i, v := range m {
		for range v {
			names = append(names, n.Places[i].Name)
		}
	}
	if len(names) == 0 {
		return "0"
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// Enabled reports whether transition t is enabled at m: m(p) >= F(p,t)
// for every place p. Source transitions are always enabled.
func (m Marking) Enabled(t *Transition) bool {
	for _, a := range t.In {
		if int(m[a.Place]) < a.Weight {
			return false
		}
	}
	return true
}

// Fire returns the marking obtained by firing t at m. It panics if t is
// not enabled; callers are expected to have checked Enabled.
func (m Marking) Fire(t *Transition) Marking {
	if !m.Enabled(t) {
		panic(fmt.Sprintf("petri: firing disabled transition %s at %v", t.Name, []int32(m)))
	}
	return m.FireInto(nil, t)
}

// FireInto writes the result of firing t at m into dst, growing dst as
// needed, and returns it; it does not allocate when dst has capacity.
// It is the firing rule read straight off t's arcs, needing no
// FiringTable; searches fire through FiringTable.Fire, which tests
// check against it. The caller must have checked Enabled; FireInto
// does not.
func (m Marking) FireInto(dst Marking, t *Transition) Marking {
	if cap(dst) < len(m) {
		dst = make(Marking, len(m))
	}
	dst = dst[:len(m)]
	copy(dst, m)
	for _, a := range t.In {
		dst[a.Place] -= int32(a.Weight)
	}
	for _, a := range t.Out {
		dst[a.Place] += int32(a.Weight)
	}
	return dst
}

// Compare orders markings lexicographically by token vector (shorter
// vectors first). It is an allocation-free total order for sorting and
// deduplication; unrelated to the covering partial order.
func (m Marking) Compare(o Marking) int {
	if len(m) != len(o) {
		if len(m) < len(o) {
			return -1
		}
		return 1
	}
	for i := range m {
		if m[i] != o[i] {
			if m[i] < o[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}
