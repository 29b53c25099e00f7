package petri

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Wire (de)serialization for cross-process exploration. A distributed
// frontier ships three kinds of payload between coordinator and worker
// processes: the net itself (once per session), full token vectors (the
// root states seeding a session), and per-level VecDelta batches —
// compact (child, parent, transition) records from which a worker
// holding only its owned hash shards derives each newly discovered
// marking by re-firing, optionally carrying the parent's token vector
// when the receiving worker does not own the parent and so cannot
// re-fire from local state. Everything is length-checked varint
// encoding: deterministic, endian-free, and append-only so encoders
// can reuse buffers.
//
// The net encoding carries exactly the structure exploration needs —
// names, kinds, initial markings, bounds, labels and the weighted arc
// lists in declaration order — and deliberately drops the compiler
// payloads (Place.Cond, Transition.Code, process attribution): those
// drive code generation in the coordinator, never firing rules. A
// decoded net therefore produces the identical ECSPartition and
// FiringTable, which is all the determinism contract requires of a
// worker.

// AppendMarking appends m's varint encoding (length prefix + token
// counts) to dst.
func AppendMarking(dst []byte, m Marking) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	for _, v := range m {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst
}

// DecodeMarking decodes a marking encoded by AppendMarking from the
// front of buf, returning the marking and the remaining bytes.
func DecodeMarking(buf []byte) (Marking, []byte, error) {
	n, buf, err := decodeUvarint(buf)
	if err != nil {
		return nil, nil, fmt.Errorf("petri: marking length: %w", err)
	}
	if n > uint64(len(buf)) { // every token needs >= 1 byte
		return nil, nil, fmt.Errorf("petri: marking length %d exceeds payload", n)
	}
	m := make(Marking, n)
	for i := range m {
		var v uint64
		v, buf, err = decodeUvarint(buf)
		if err != nil {
			return nil, nil, fmt.Errorf("petri: marking token %d: %w", i, err)
		}
		if v > math.MaxInt {
			return nil, nil, fmt.Errorf("petri: marking token %d: count %d out of range", i, v)
		}
		m[i] = int(v)
	}
	return m, buf, nil
}

// VecDelta is one state-discovery record of a distributed exploration:
// the new state Child is the marking obtained by firing Trans at the
// already-known state Parent. Worker processes holding only their owned
// hash shards receive exactly the records whose Child they own, so the
// record names the child's global id explicitly and, when the receiver
// does not hold Parent either, carries the parent's token vector so the
// child can still be derived by re-firing. ParentVec == nil means the
// receiver already has the parent — in its owned store, or in its
// boundary-parent cache from an earlier record.
type VecDelta struct {
	Child     MarkID
	Parent    MarkID
	Trans     int32
	ParentVec Marking
}

// AppendVecDeltas appends a record batch to dst. Child ids must be
// strictly ascending (they are discovery-ordered global ids); they are
// gap-encoded against the previous record so a level's batch costs
// about one byte per record over the (parent, transition) pair, plus
// the vectors actually attached.
func AppendVecDeltas(dst []byte, ds []VecDelta) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ds)))
	prev := uint64(0)
	for _, d := range ds {
		dst = binary.AppendUvarint(dst, uint64(d.Child)-prev)
		prev = uint64(d.Child)
		hasVec := uint64(0)
		if d.ParentVec != nil {
			hasVec = 1
		}
		dst = binary.AppendUvarint(dst, uint64(d.Parent)<<1|hasVec)
		dst = binary.AppendUvarint(dst, uint64(d.Trans))
		if d.ParentVec != nil {
			dst = AppendMarking(dst, d.ParentVec)
		}
	}
	return dst
}

// DecodeVecDeltas decodes a batch encoded by AppendVecDeltas from the
// front of buf, appending to ds, and returns the batch and remaining
// bytes. Ids must fit a MarkID, children must ascend and transitions
// must fit an int32; anything else is an error, never a silent
// truncation. Attached vectors are freshly allocated (a receiver caches
// boundary-parent vectors beyond the life of the read buffer).
func DecodeVecDeltas(ds []VecDelta, buf []byte) ([]VecDelta, []byte, error) {
	n, buf, err := decodeUvarint(buf)
	if err != nil {
		return nil, nil, fmt.Errorf("petri: vec-delta count: %w", err)
	}
	if n > uint64(len(buf)) { // every record needs >= 3 bytes
		return nil, nil, fmt.Errorf("petri: vec-delta count %d exceeds payload", n)
	}
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		var gap, pv, t uint64
		gap, buf, err = decodeUvarint(buf)
		if err == nil {
			pv, buf, err = decodeUvarint(buf)
		}
		if err == nil {
			t, buf, err = decodeUvarint(buf)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("petri: vec-delta %d: %w", i, err)
		}
		switch {
		case i > 0 && gap == 0:
			return nil, nil, fmt.Errorf("petri: vec-delta %d: child ids not ascending", i)
		case gap >= uint64(NoMark)-prev, pv>>1 >= uint64(NoMark):
			return nil, nil, fmt.Errorf("petri: vec-delta %d: id out of range", i)
		case t > math.MaxInt32:
			return nil, nil, fmt.Errorf("petri: vec-delta %d: transition %d out of range", i, t)
		}
		d := VecDelta{Child: MarkID(prev + gap), Parent: MarkID(pv >> 1), Trans: int32(t)}
		prev += gap
		if pv&1 != 0 {
			d.ParentVec, buf, err = DecodeMarking(buf)
			if err != nil {
				return nil, nil, fmt.Errorf("petri: vec-delta %d vector: %w", i, err)
			}
		}
		ds = append(ds, d)
	}
	return ds, buf, nil
}

// AppendNet appends the net's wire encoding to dst. See the package
// comment above for what is (and deliberately is not) carried.
func AppendNet(dst []byte, n *Net) []byte {
	dst = appendString(dst, n.Name)
	dst = binary.AppendUvarint(dst, uint64(len(n.Places)))
	for _, p := range n.Places {
		dst = appendString(dst, p.Name)
		dst = binary.AppendUvarint(dst, uint64(p.Kind))
		dst = binary.AppendUvarint(dst, uint64(p.Initial))
		dst = binary.AppendUvarint(dst, uint64(p.Bound))
	}
	dst = binary.AppendUvarint(dst, uint64(len(n.Transitions)))
	for _, t := range n.Transitions {
		dst = appendString(dst, t.Name)
		dst = appendString(dst, t.Label)
		dst = binary.AppendUvarint(dst, uint64(t.Kind))
		dst = appendArcs(dst, t.In)
		dst = appendArcs(dst, t.Out)
	}
	return dst
}

// DecodeNet decodes a net encoded by AppendNet from the front of buf,
// returning the net and the remaining bytes. The decoded net validates
// and reproduces the original's ECS partition and firing table exactly.
func DecodeNet(buf []byte) (*Net, []byte, error) {
	name, buf, err := decodeString(buf)
	if err != nil {
		return nil, nil, fmt.Errorf("petri: net name: %w", err)
	}
	n := New(name)
	np, buf, err := decodeUvarint(buf)
	if err != nil {
		return nil, nil, fmt.Errorf("petri: place count: %w", err)
	}
	if np > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("petri: place count %d exceeds payload", np)
	}
	for i := uint64(0); i < np; i++ {
		var pname string
		var kind, initial, bound uint64
		pname, buf, err = decodeString(buf)
		if err == nil {
			kind, buf, err = decodeUvarint(buf)
		}
		if err == nil {
			initial, buf, err = decodeUvarint(buf)
		}
		if err == nil {
			bound, buf, err = decodeUvarint(buf)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("petri: place %d: %w", i, err)
		}
		p := n.AddPlace(pname, PlaceKind(kind), int(initial))
		p.Bound = int(bound)
	}
	nt, buf, err := decodeUvarint(buf)
	if err != nil {
		return nil, nil, fmt.Errorf("petri: transition count: %w", err)
	}
	if nt > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("petri: transition count %d exceeds payload", nt)
	}
	for i := uint64(0); i < nt; i++ {
		var tname, label string
		var kind uint64
		tname, buf, err = decodeString(buf)
		if err == nil {
			label, buf, err = decodeString(buf)
		}
		if err == nil {
			kind, buf, err = decodeUvarint(buf)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("petri: transition %d: %w", i, err)
		}
		t := n.AddTransition(tname, TransKind(kind))
		t.Label = label
		t.In, buf, err = decodeArcs(buf, len(n.Places))
		if err == nil {
			t.Out, buf, err = decodeArcs(buf, len(n.Places))
		}
		if err != nil {
			return nil, nil, fmt.Errorf("petri: transition %s arcs: %w", tname, err)
		}
	}
	if err := n.Validate(); err != nil {
		return nil, nil, fmt.Errorf("petri: decoded net invalid: %w", err)
	}
	return n, buf, nil
}

func appendArcs(dst []byte, arcs []Arc) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(arcs)))
	for _, a := range arcs {
		dst = binary.AppendUvarint(dst, uint64(a.Place))
		dst = binary.AppendUvarint(dst, uint64(a.Weight))
	}
	return dst
}

func decodeArcs(buf []byte, places int) ([]Arc, []byte, error) {
	n, buf, err := decodeUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("arc count %d exceeds payload", n)
	}
	var arcs []Arc
	for i := uint64(0); i < n; i++ {
		var p, w uint64
		p, buf, err = decodeUvarint(buf)
		if err == nil {
			w, buf, err = decodeUvarint(buf)
		}
		if err != nil {
			return nil, nil, err
		}
		if p >= uint64(places) {
			return nil, nil, fmt.Errorf("arc place %d out of range (%d places)", p, places)
		}
		arcs = append(arcs, Arc{Place: int(p), Weight: int(w)})
	}
	return arcs, buf, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func decodeString(buf []byte) (string, []byte, error) {
	n, buf, err := decodeUvarint(buf)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(buf)) {
		return "", nil, fmt.Errorf("string length %d exceeds payload", n)
	}
	return string(buf[:n]), buf[n:], nil
}

func decodeUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated or overlong varint")
	}
	return v, buf[n:], nil
}
