package petri

// Push and Extend are how every table an exploration extends by one
// entry per interned state or per recorded edge grows: the driver's
// enabled-bit window, a reachability exploration's row records, the
// scheduler graph engine's state table and adjacency, and a dist
// worker's gids and bits. The adjacency gains an entry only per
// successor of a group the caps do not veto: a veto rolls back the
// group's earlier members by truncation, and the next Push writes over
// the room they held. Tables indexed by MarkID may instead reserve
// ahead with the store's own probe-table doubling, as
// MarkingStore.keys does. A ReachResult's Edges headers (24 bytes a
// state) and Clipped flags do not grow at all: they are laid out once,
// at their final length, when the exploration ends (see
// reachExplorer.result).
//
// Both take the table by pointer and grow it in place. While capacity
// lasts they store only the new length; the slice's data pointer is
// written only when the table reallocates. These tables usually live in
// heap objects (an engine, a driver, a result), and a pointer store
// into the heap pays a write barrier whenever the garbage collector is
// marking, so an update that stores the whole header, such as
// t = append(grow(t, 1), v), would pay one per successor.

// Push appends v to *s, reallocating by grow's doubling rule when *s is
// full.
func Push[S ~[]E, E any](s *S, v E) {
	if len(*s) == cap(*s) {
		*s = grow(*s, 1)
	}
	*s = append(*s, v)
}

// Extend lengthens *s by n elements, reallocating by grow's doubling
// rule when they do not fit. The new elements are zero unless *s was
// truncated earlier, so callers overwrite them.
func Extend[S ~[]E, E any](s *S, n int) {
	if n > cap(*s)-len(*s) {
		*s = grow(*s, n)
	}
	*s = (*s)[:len(*s)+n]
}

// grow returns s with room for n more elements, like slices.Grow,
// except that a reallocation at least doubles the capacity. The builtin
// append grows a large slice by about 1.25x, so a table appended to one
// entry at a time allocates about five times its final capacity over
// an exploration; doubling allocates about twice.
func grow[S ~[]E, E any](s S, n int) S {
	if n > cap(s)-len(s) {
		s = append(make(S, 0, max(2*cap(s), len(s)+n)), s...)
	}
	return s
}
