package petri

// Grow is the growth rule of every table an exploration extends by one
// entry per interned state or per recorded edge: the driver's
// enabled-bit arena, a ReachResult's Edges headers and Clipped flags,
// the scheduler graph engine's state table and arenas, and a dist
// worker's gids and bits. It returns s with room for n more elements,
// like slices.Grow, except that a reallocation at least doubles the
// capacity. The builtin append grows a large slice by about 1.25x, so a
// table appended to one entry at a time allocates about five times its
// final capacity over an exploration; doubling allocates about twice.
// Tables indexed by MarkID may instead reserve ahead with the store's
// own probe-table doubling, as MarkingStore.hashes does.
//
// The usual call is append(Grow(s, 1), v). Growing only the length,
// Grow(s, n)[:len(s)+n], exposes elements that are zero unless s was
// truncated earlier.
func Grow[S ~[]E, E any](s S, n int) S {
	if n > cap(s)-len(s) {
		s = append(make(S, 0, max(2*cap(s), len(s)+n)), s...)
	}
	return s
}
