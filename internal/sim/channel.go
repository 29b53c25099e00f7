package sim

import "fmt"

// Channel is a FIFO of integers with an optional capacity, shared by the
// two executors. Capacity 0 means unbounded. Storage is a power-of-two
// ring: the previous reslice-forward implementation retained every
// consumed prefix until the next growth and reallocated proportionally
// to total throughput, which the corpus sweep's long simulations paid
// for on every run.
type Channel struct {
	Name     string
	Capacity int
	ring     []int64 // power-of-two ring storage
	head     int     // index of the oldest item
	count    int     // occupancy

	// Stats.
	ItemsMoved    int64
	MaxOccupancy  int
	BlockedWrites int64 // writes that had to wait at least once
}

// NewChannel creates a channel. capacity 0 = unbounded.
func NewChannel(name string, capacity int) *Channel {
	return &Channel{Name: name, Capacity: capacity}
}

// Space returns the free space, or a large number for unbounded
// channels.
func (c *Channel) Space() int {
	if c.Capacity <= 0 {
		return 1 << 30
	}
	return c.Capacity - c.count
}

// CanRead reports whether n items are available.
func (c *Channel) CanRead(n int) bool { return c.count >= n }

// CanWrite reports whether n items fit.
func (c *Channel) CanWrite(n int) bool { return c.Space() >= n }

// ReadInto removes n items into dst[:n] without allocating; dst must
// hold at least n items.
func (c *Channel) ReadInto(dst []int64, n int) error {
	if !c.CanRead(n) {
		return fmt.Errorf("sim: channel %s: read %d with %d available", c.Name, n, c.count)
	}
	mask := len(c.ring) - 1
	first := n
	if wrap := len(c.ring) - c.head; first > wrap {
		first = wrap
	}
	copy(dst[:first], c.ring[c.head:c.head+first])
	copy(dst[first:n], c.ring[:n-first])
	c.head = (c.head + n) & mask
	c.count -= n
	if c.count == 0 {
		c.head = 0
	}
	c.ItemsMoved += int64(n)
	return nil
}

// Write appends n items; the caller must have checked CanWrite.
func (c *Channel) Write(vals []int64) error {
	if !c.CanWrite(len(vals)) {
		return fmt.Errorf("sim: channel %s: write %d with %d free", c.Name, len(vals), c.Space())
	}
	c.reserve(c.count + len(vals))
	mask := len(c.ring) - 1
	tail := (c.head + c.count) & mask
	first := len(vals)
	if wrap := len(c.ring) - tail; first > wrap {
		first = wrap
	}
	copy(c.ring[tail:tail+first], vals[:first])
	copy(c.ring[:len(vals)-first], vals[first:])
	c.count += len(vals)
	if c.count > c.MaxOccupancy {
		c.MaxOccupancy = c.count
	}
	c.ItemsMoved += int64(len(vals))
	return nil
}

// reserve grows the ring to the next power of two holding want items,
// unrolling the occupants to the front of the new storage.
func (c *Channel) reserve(want int) {
	if want <= len(c.ring) {
		return
	}
	size := 8
	for size < want {
		size *= 2
	}
	nr := make([]int64, size)
	if c.count > 0 {
		first := c.count
		if wrap := len(c.ring) - c.head; first > wrap {
			first = wrap
		}
		copy(nr, c.ring[c.head:c.head+first])
		copy(nr[first:], c.ring[:c.count-first])
	}
	c.ring = nr
	c.head = 0
}

// InputStream models an environment input port: a queue of values
// provided by the test harness or workload generator.
type InputStream struct {
	Name string
	vals []int64
}

// NewInputStream creates a stream with the given initial values.
func NewInputStream(name string, vals ...int64) *InputStream {
	return &InputStream{Name: name, vals: append([]int64(nil), vals...)}
}

// Push appends values (the environment producing more input).
func (s *InputStream) Push(vals ...int64) { s.vals = append(s.vals, vals...) }

// Len returns the number of queued values.
func (s *InputStream) Len() int { return len(s.vals) }

// Pop removes and returns the next n values.
func (s *InputStream) Pop(n int) ([]int64, error) {
	if len(s.vals) < n {
		return nil, fmt.Errorf("sim: input %s exhausted (want %d, have %d)", s.Name, n, len(s.vals))
	}
	out := make([]int64, n)
	copy(out, s.vals[:n])
	s.vals = s.vals[n:]
	return out, nil
}

// OutputStream collects values delivered to an environment output port.
type OutputStream struct {
	Name string
	Vals []int64
}

// Append records delivered values.
func (s *OutputStream) Append(vals ...int64) { s.Vals = append(s.Vals, vals...) }
