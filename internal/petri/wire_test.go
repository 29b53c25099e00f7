package petri

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// wireTestNet builds a net exercising every encoded feature: kinds,
// bounds, labels, multi-arc weights, self loops.
func wireTestNet() *Net {
	n := New("wire")
	p1 := n.AddPlace("p1", PlaceChannel, 2)
	p2 := n.AddPlace("p2", PlaceInternal, 0)
	p3 := n.AddPlace("p3", PlaceComplement, 5)
	p3.Bound = 5
	src := n.AddTransition("go", TransSourceUnc)
	t := n.AddTransition("t", TransNormal)
	t.Label = "T"
	u := n.AddTransition("u", TransNormal)
	u.Label = "F"
	snk := n.AddTransition("out", TransSink)
	n.AddArcTP(src, p1, 1)
	n.AddArc(p1, t, 2)
	n.AddArcTP(t, p2, 3)
	n.AddArc(p1, u, 2)
	n.AddSelfLoop(p3, u, 1)
	n.AddArc(p2, snk, 1)
	return n
}

// TestNetWireRoundTrip: the decoded net reproduces structure, firing
// semantics, the ECS partition and the firing table — the full
// determinism contract a worker process depends on.
func TestNetWireRoundTrip(t *testing.T) {
	orig := wireTestNet()
	buf := AppendNet(nil, orig)
	dec, rest, err := DecodeNet(buf)
	if err != nil {
		t.Fatalf("DecodeNet: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("DecodeNet left %d bytes", len(rest))
	}
	if dec.Name != orig.Name || len(dec.Places) != len(orig.Places) || len(dec.Transitions) != len(orig.Transitions) {
		t.Fatalf("decoded shape %s differs from %s", dec, orig)
	}
	for i, p := range orig.Places {
		q := dec.Places[i]
		if q.Name != p.Name || q.Kind != p.Kind || q.Initial != p.Initial || q.Bound != p.Bound {
			t.Fatalf("place %d: %+v != %+v", i, q, p)
		}
	}
	for i, tr := range orig.Transitions {
		dr := dec.Transitions[i]
		if dr.Name != tr.Name || dr.Kind != tr.Kind || dr.Label != tr.Label {
			t.Fatalf("transition %d header differs", i)
		}
		if len(dr.In) != len(tr.In) || len(dr.Out) != len(tr.Out) {
			t.Fatalf("transition %d arc counts differ", i)
		}
		for k := range tr.In {
			if dr.In[k] != tr.In[k] {
				t.Fatalf("transition %d In[%d] differs", i, k)
			}
		}
		for k := range tr.Out {
			if dr.Out[k] != tr.Out[k] {
				t.Fatalf("transition %d Out[%d] differs", i, k)
			}
		}
	}
	if !dec.InitialMarking().Equal(orig.InitialMarking()) {
		t.Fatal("initial markings differ")
	}
	op, dp := orig.ECSPartition(), dec.ECSPartition()
	if len(op) != len(dp) {
		t.Fatalf("partition sizes differ: %d vs %d", len(dp), len(op))
	}
	for i := range op {
		if len(op[i].Trans) != len(dp[i].Trans) {
			t.Fatalf("ECS %d sizes differ", i)
		}
		for k := range op[i].Trans {
			if op[i].Trans[k] != dp[i].Trans[k] {
				t.Fatalf("ECS %d member %d differs", i, k)
			}
		}
	}
	of, df := NewFiringTable(orig, op), NewFiringTable(dec, dp)
	if !slices.Equal(of.trans, df.trans) || !slices.Equal(of.deltas, df.deltas) || !slices.Equal(of.touched, df.touched) {
		t.Fatal("firing tables differ")
	}
	// Exploration of both nets must agree state for state.
	ro := orig.Explore(ExploreOptions{MaxMarkings: 200, MaxTokensPerPlace: 6, FireSources: true})
	rd := dec.Explore(ExploreOptions{MaxMarkings: 200, MaxTokensPerPlace: 6, FireSources: true})
	if ro.Len() != rd.Len() || ro.Truncated != rd.Truncated {
		t.Fatalf("explorations differ: %d/%v vs %d/%v", ro.Len(), ro.Truncated, rd.Len(), rd.Truncated)
	}
	for id := 0; id < ro.Len(); id++ {
		if !ro.MarkingAt(MarkID(id)).Equal(rd.MarkingAt(MarkID(id))) {
			t.Fatalf("marking %d differs", id)
		}
	}
}

// TestMarkingWireRoundTrip: markings survive the varint encoding,
// including batched concatenation.
func TestMarkingWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var buf []byte
	var want []Marking
	for i := 0; i < 50; i++ {
		m := make(Marking, rng.Intn(12))
		for j := range m {
			m[j] = int32(rng.Intn(1 << rng.Intn(20)))
		}
		want = append(want, m)
		buf = AppendMarking(buf, m)
	}
	rest := buf
	for i, w := range want {
		var got Marking
		var err error
		got, rest, err = DecodeMarking(rest)
		if err != nil {
			t.Fatalf("marking %d: %v", i, err)
		}
		if !got.Equal(w) {
			t.Fatalf("marking %d: %v != %v", i, got, w)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}
}

// TestVecDeltaWireRoundTrip: the trimmed-replica wire shape — child
// gap encoding, the parent has-vector flag, attached vectors — over
// batches mixing vector-bearing and bare records.
func TestVecDeltaWireRoundTrip(t *testing.T) {
	cases := [][]VecDelta{
		nil,
		{{Child: 0, Parent: 0, Trans: 0}},
		{{Child: 5, Parent: 2, Trans: 1, ParentVec: Marking{1, 0, 3}}},
		{
			{Child: 10, Parent: 3, Trans: 2},
			{Child: 11, Parent: 3, Trans: 7, ParentVec: Marking{0, 0, 0, 4}},
			{Child: 13, Parent: 9, Trans: 0, ParentVec: Marking{}},
			{Child: 1 << 21, Parent: 1 << 20, Trans: 255},
		},
	}
	for ci, ds := range cases {
		enc := AppendVecDeltas(nil, ds)
		got, rest, err := DecodeVecDeltas(nil, enc)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if len(rest) != 0 {
			t.Fatalf("case %d: %d bytes left over", ci, len(rest))
		}
		if len(got) != len(ds) {
			t.Fatalf("case %d: %d records, want %d", ci, len(got), len(ds))
		}
		for i := range ds {
			w, g := ds[i], got[i]
			if g.Child != w.Child || g.Parent != w.Parent || g.Trans != w.Trans {
				t.Fatalf("case %d record %d: %+v != %+v", ci, i, g, w)
			}
			if (g.ParentVec == nil) != (w.ParentVec == nil) {
				t.Fatalf("case %d record %d: vector presence differs", ci, i)
			}
			if w.ParentVec != nil && !g.ParentVec.Equal(w.ParentVec) {
				t.Fatalf("case %d record %d: vector %v != %v", ci, i, g.ParentVec, w.ParentVec)
			}
		}
	}
}

// TestWireErrorPaths: table-driven corrupt inputs for every decoder —
// truncated varint streams, oversized length/count prefixes that would
// over-read or over-allocate, and malformed vector-bearing deltas —
// must all fail with an error, never panic or succeed.
func TestWireErrorPaths(t *testing.T) {
	// A varint whose continuation bits never terminate.
	overlong := bytes.Repeat([]byte{0x80}, 11)
	validNet := AppendNet(nil, wireTestNet())
	validVec := AppendVecDeltas(nil, []VecDelta{
		{Child: 4, Parent: 1, Trans: 2, ParentVec: Marking{1, 2}},
		{Child: 6, Parent: 4, Trans: 0},
	})
	cases := []struct {
		name   string
		decode func([]byte) error
		buf    []byte
	}{
		{"marking/empty", decodeMarkingErr, nil},
		{"marking/overlong-length", decodeMarkingErr, overlong},
		{"marking/length-exceeds-payload", decodeMarkingErr, binary.AppendUvarint(nil, 1000)},
		{"marking/truncated-tokens", decodeMarkingErr, binary.AppendUvarint(nil, 3)[:1]},
		{"marking/token-overlong", decodeMarkingErr, append(binary.AppendUvarint(nil, 2), overlong...)},
		{"vecdeltas/empty", decodeVecDeltasErr, nil},
		{"vecdeltas/count-exceeds-payload", decodeVecDeltasErr, binary.AppendUvarint(nil, 1<<40)},
		{"vecdeltas/truncated-record", decodeVecDeltasErr, binary.AppendUvarint(nil, 1)},
		{"vecdeltas/missing-vector", decodeVecDeltasErr,
			// One record claiming an attached vector, then nothing.
			func() []byte {
				b := binary.AppendUvarint(nil, 1)
				b = binary.AppendUvarint(b, 4)      // child gap
				b = binary.AppendUvarint(b, 2<<1|1) // parent 2, hasVec
				return binary.AppendUvarint(b, 0)   // trans; vector absent
			}(),
		},
		{"vecdeltas/vector-length-exceeds-payload", decodeVecDeltasErr,
			func() []byte {
				b := binary.AppendUvarint(nil, 1)
				b = binary.AppendUvarint(b, 4)
				b = binary.AppendUvarint(b, 2<<1|1)
				b = binary.AppendUvarint(b, 0)
				return binary.AppendUvarint(b, 1<<30) // vector length prefix
			}(),
		},
		{"vecdeltas/truncated-mid-batch", decodeVecDeltasErr, validVec[:len(validVec)-1]},
		{"net/empty", decodeNetErr, nil},
		{"net/overlong-name", decodeNetErr, overlong},
		{"net/name-exceeds-payload", decodeNetErr, binary.AppendUvarint(nil, 1<<25)},
		{"net/place-count-exceeds-payload", decodeNetErr,
			append(appendString(nil, "x"), binary.AppendUvarint(nil, 1<<40)...)},
		{"net/truncated-mid-places", decodeNetErr, validNet[:len(validNet)/3]},
		{"net/truncated-mid-transitions", decodeNetErr, validNet[:len(validNet)-3]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.decode(tc.buf); err == nil {
				t.Fatalf("decode of %d corrupt bytes succeeded", len(tc.buf))
			}
		})
	}
}

func decodeMarkingErr(b []byte) error   { _, _, err := DecodeMarking(b); return err }
func decodeVecDeltasErr(b []byte) error { _, _, err := DecodeVecDeltas(nil, b); return err }
func decodeNetErr(b []byte) error       { _, _, err := DecodeNet(b); return err }

// TestWireDecodeCorrupt: truncations and bit flips of a valid net
// encoding must fail cleanly (error), never panic or decode junk that
// passes validation with a different structure.
func TestWireDecodeCorrupt(t *testing.T) {
	valid := AppendNet(nil, wireTestNet())
	for cut := 0; cut < len(valid); cut++ {
		if _, _, err := DecodeNet(valid[:cut]); err == nil {
			// A clean prefix decode is only acceptable if it reproduces
			// the original bytes (cannot happen for strict prefixes of a
			// self-delimiting encoding, but keep the check honest).
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		mut := bytes.Clone(valid)
		mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		dec, rest, err := DecodeNet(mut)
		if err != nil || len(rest) != 0 {
			continue // rejected: fine
		}
		// Accepted: the mutation must decode to a net that still
		// validates; spot-check it did not silently keep the original
		// byte identity claim.
		if err := dec.Validate(); err != nil {
			t.Fatalf("mutation %d decoded an invalid net: %v", i, err)
		}
	}
	// Bytes no firing rule means: a transition with two input arcs on
	// one place (AddArc would have merged them), and token counts above
	// MaxTokens, which do not fit a Marking: 2^31 and 2^63.
	n := New("dup")
	p := n.AddPlace("p", PlaceChannel, 1)
	tr := n.AddTransition("t", TransNormal)
	tr.In = []Arc{{Place: p.ID, Weight: 1}, {Place: p.ID, Weight: 1}}
	if _, _, err := DecodeNet(AppendNet(nil, n)); err == nil || !strings.Contains(err.Error(), "two input arcs on place p") {
		t.Fatalf("DecodeNet of a repeated input arc: err = %v", err)
	}
	for _, v := range []uint64{1 << 31, 1 << 63} {
		huge := binary.AppendUvarint(binary.AppendUvarint([]byte{2}, 1), v)
		if m, _, err := DecodeMarking(huge); err == nil {
			t.Fatalf("DecodeMarking accepted a %d token count as %v", v, m)
		}
	}
	edge := binary.AppendUvarint(binary.AppendUvarint([]byte{2}, 1), MaxTokens)
	if m, _, err := DecodeMarking(edge); err != nil || !m.Equal(Marking{1, MaxTokens}) {
		t.Fatalf("DecodeMarking of a MaxTokens count = %v, %v", m, err)
	}
	// A net whose initial marking, bound or arc weight is 2^31 fails
	// Validate; exactly MaxTokens decodes.
	for _, v := range []int{MaxTokens, MaxTokens + 1} {
		for field := range 3 {
			n := New("limit")
			p := n.AddPlace("p", PlaceChannel, 0)
			tr := n.AddTransition("t", TransNormal)
			n.AddArc(p, tr, 1)
			switch field {
			case 0:
				p.Initial = v
			case 1:
				p.Bound = v
			case 2:
				tr.In[0].Weight = v
			}
			_, _, err := DecodeNet(AppendNet(nil, n))
			if (err == nil) != (v == MaxTokens) {
				t.Fatalf("DecodeNet with field %d = %d: err = %v", field, v, err)
			}
		}
	}
}
