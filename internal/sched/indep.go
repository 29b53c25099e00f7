package sched

import (
	"errors"
	"fmt"
)

// Independence of single-source schedules (Definition 4.3): two SS
// schedules are mutually independent iff for every place involved in one,
// the token count is constant over all await nodes of the other. An
// independent set is executable with statically known channel bounds
// (Proposition 4.2); for FlowC-derived nets every set of SS schedules is
// independent (Proposition 4.3), and CheckIndependence verifies it.

// MutuallyIndependent reports whether the two schedules satisfy
// Definition 4.3, returning a diagnostic for the first violation.
func MutuallyIndependent(a, b *Schedule) (bool, string) {
	if ok, why := onePlaceConst(a, b); !ok {
		return false, why
	}
	return onePlaceConst(b, a)
}

// onePlaceConst checks that every place involved in `user` holds a
// constant count over the await nodes of `other`.
func onePlaceConst(user, other *Schedule) (bool, string) {
	awaits := other.AwaitNodes()
	if len(awaits) == 0 {
		return true, ""
	}
	for _, p := range user.InvolvedPlaces() {
		v0 := awaits[0].Marking[p]
		for _, w := range awaits[1:] {
			if w.Marking[p] != v0 {
				return false, fmt.Sprintf(
					"place %s involved in schedule of %s varies (%d vs %d) across await nodes of schedule of %s",
					user.Net.Places[p].Name, user.Net.Transitions[user.Source].Name,
					v0, w.Marking[p], other.Net.Transitions[other.Source].Name)
			}
		}
	}
	return true, ""
}

// ErrNotIndependent is wrapped by CheckIndependence when two schedules
// of the set violate Definition 4.3.
var ErrNotIndependent = errors.New("sched: schedules not independent")

// CheckIndependence verifies pairwise independence of a schedule set.
func CheckIndependence(set []*Schedule) error {
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if ok, why := MutuallyIndependent(set[i], set[j]); !ok {
				return fmt.Errorf("%w: %s", ErrNotIndependent, why)
			}
		}
	}
	return nil
}

// CombinedPlaceBounds returns, per place, the maximum token count over
// the nodes of all schedules — the buffer sizes that make the whole task
// set executable (Section 4.3).
func CombinedPlaceBounds(set []*Schedule) []int {
	if len(set) == 0 {
		return nil
	}
	out := make([]int, len(set[0].Net.Places))
	for _, s := range set {
		for p, v := range s.PlaceBounds() {
			if v > out[p] {
				out[p] = v
			}
		}
	}
	return out
}
