package petri

import (
	"fmt"
	"sort"
	"strings"
)

// Marking is a token count per place, indexed by place ID. Markings are
// value-like: mutating methods operate in place, functional ones return
// fresh slices.
type Marking []int

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

// Covers reports whether m(p) >= o(p) for every place p.
func (m Marking) Covers(o Marking) bool {
	if len(m) != len(o) {
		return false
	}
	for i := range m {
		if m[i] < o[i] {
			return false
		}
	}
	return true
}

// Total returns the total number of tokens.
func (m Marking) Total() int {
	s := 0
	for _, v := range m {
		s += v
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
		for k := 0; k < v; k++ {
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
		if m[a.Place] < a.Weight {
			return false
		}
	}
	return true
}

// Fire returns the marking obtained by firing t at m. It panics if t is
// not enabled; callers are expected to have checked Enabled.
func (m Marking) Fire(t *Transition) Marking {
	if !m.Enabled(t) {
		panic(fmt.Sprintf("petri: firing disabled transition %s at %v", t.Name, []int(m)))
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
		dst[a.Place] -= a.Weight
	}
	for _, a := range t.Out {
		dst[a.Place] += a.Weight
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

// FireSeq fires a sequence of transitions from m, returning the final
// marking, or an error naming the first disabled transition.
func (m Marking) FireSeq(seq []*Transition) (Marking, error) {
	cur := m
	for i, t := range seq {
		if !cur.Enabled(t) {
			return nil, fmt.Errorf("petri: transition %s (position %d) not enabled", t.Name, i)
		}
		cur = cur.Fire(t)
	}
	return cur, nil
}

// Fireable reports whether the sequence is fireable from m.
func (m Marking) Fireable(seq []*Transition) bool {
	_, err := m.FireSeq(seq)
	return err == nil
}

// EnabledTransitions returns the IDs of all transitions of n enabled at
// m, in ascending order. Source transitions are included.
func (n *Net) EnabledTransitions(m Marking) []int {
	var out []int
	for _, t := range n.Transitions {
		if m.Enabled(t) {
			out = append(out, t.ID)
		}
	}
	return out
}

// RespectsBounds reports whether the marking respects every
// user-specified place bound (Bound == 0 means unbounded).
func (n *Net) RespectsBounds(m Marking) bool {
	for i, p := range n.Places {
		if p.Bound > 0 && m[i] > p.Bound {
			return false
		}
	}
	return true
}
