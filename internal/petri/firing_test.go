package petri

import (
	"math/rand"
	"testing"
)

// randomNet builds a seeded random net: a mix of internal and channel
// places, transitions of all kinds, duplicate arc additions (weight
// accumulation) and self loops — the shapes the firing table's
// changed-place analysis must survive.
func randomNet(rng *rand.Rand) *Net {
	n := New("rand")
	nPlaces := rng.Intn(8) + 2
	for i := 0; i < nPlaces; i++ {
		kind := PlaceInternal
		if rng.Intn(2) == 0 {
			kind = PlaceChannel
		}
		n.AddPlace("", kind, rng.Intn(3))
	}
	nTrans := rng.Intn(10) + 2
	for i := 0; i < nTrans; i++ {
		kind := TransNormal
		switch rng.Intn(6) {
		case 0:
			kind = TransSourceUnc
		case 1:
			kind = TransSink
		}
		t := n.AddTransition("", kind)
		if kind != TransSourceUnc {
			for a := rng.Intn(3) + 1; a > 0; a-- {
				n.AddArc(n.Places[rng.Intn(nPlaces)], t, rng.Intn(2)+1)
			}
			if rng.Intn(4) == 0 {
				n.AddSelfLoop(n.Places[rng.Intn(nPlaces)], t, 1)
			}
		}
		for a := rng.Intn(3); a > 0; a-- {
			n.AddArcTP(t, n.Places[rng.Intn(nPlaces)], rng.Intn(2)+1)
		}
	}
	return n
}

// bitsOf collects the set ECS indexes of a bitset.
func bitsOf(set []uint64, num int) []int {
	var out []int
	for i := 0; i < num; i++ {
		if set[i>>6]&(1<<(uint(i)&63)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// touchedOf returns the ECS indexes Update re-evaluates when t fires.
func (f *FiringTable) touchedOf(t int) []int32 {
	e := &f.trans[t]
	return f.touched[e.tlo:e.thi]
}

// enabledIdx is the brute-force reference: full-partition scan.
func enabledIdx(n *Net, part []*ECS, m Marking) []int {
	var out []int
	for _, e := range part {
		if e.Enabled(n, m) {
			out = append(out, e.Index)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAppendDeltas: a transition's token effect must match what
// FireInto does to a vector, with one entry per changed place and
// self-loops cancelled.
func TestAppendDeltas(t *testing.T) {
	n := New("deltas")
	p := n.AddPlace("p", PlaceChannel, 3)
	q := n.AddPlace("q", PlaceChannel, 0)
	r := n.AddPlace("r", PlaceChannel, 1)
	tr := n.AddTransition("t", TransNormal)
	n.AddArc(p, tr, 2)
	n.AddArcTP(tr, q, 3)
	n.AddArc(r, tr, 1) // self-loop on r:
	n.AddArcTP(tr, r, 1)
	ds := tr.AppendDeltas(nil)
	m := n.InitialMarking()
	want := m.Fire(tr)
	got := m.Clone()
	seen := map[int32]bool{}
	for _, d := range ds {
		got[d.Place] += d.Delta
		if d.Delta == 0 || seen[d.Place] {
			t.Fatalf("deltas %v: zero or repeated entry for place %d", ds, d.Place)
		}
		seen[d.Place] = true
	}
	if !got.Equal(want) || len(ds) != 2 {
		t.Fatalf("deltas %v apply to %v, want %v from two entries", ds, got, want)
	}
}

// TestFiringTableRandomWalks: along random firing walks of random nets
// under random caps, the table must agree with the arcs at every step:
// Fire with Marking.FireInto, Hash with HashMarking, Veto with
// ExpandSpec.Veto, the incremental enabled set with Init's full scan,
// and ECSOf with ECSIndex.
func TestFiringTableRandomWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := randomNet(rng)
		part := n.ECSPartition()
		ft := NewFiringTable(n, part)
		spec := ExpandSpec{Caps: make([]int, len(n.Places))}
		for i := range spec.Caps {
			spec.Caps[i] = rng.Intn(8) - 2 // about a third unbounded
		}
		m := n.InitialMarking()
		cur := make([]uint64, ft.Stride())
		next := make([]uint64, ft.Stride())
		full := make([]uint64, ft.Stride())
		ft.Init(cur, m)
		if got, want := bitsOf(cur, len(part)), enabledIdx(n, part, m); !equalInts(got, want) {
			t.Fatalf("trial %d: Init %v, want %v", trial, got, want)
		}
		var scratch Marking
		for step := 0; step < 60; step++ {
			// Check every enabled transition, then fire a random one,
			// capping token counts so source-driven nets stay small.
			var enabled []int
			for _, tt := range n.Transitions {
				if !m.Enabled(tt) {
					continue
				}
				enabled = append(enabled, tt.ID)
				want := m.FireInto(nil, tt)
				scratch = ft.Fire(scratch, m, tt.ID)
				if !scratch.Equal(want) {
					t.Fatalf("trial %d step %d: Fire(t%d) = %v, want %v", trial, step, tt.ID, scratch, want)
				}
				if got := ft.Hash(HashMarking(m), tt.ID); got != HashMarking(want) {
					t.Fatalf("trial %d step %d: Hash(t%d) = %#x, want %#x", trial, step, tt.ID, got, HashMarking(want))
				}
				if got := ft.Veto(&spec, want, tt.ID, true); got != spec.Veto(want) {
					t.Fatalf("trial %d step %d: full Veto(t%d) = %v", trial, step, tt.ID, got)
				}
				if !spec.Veto(m) {
					if got := ft.Veto(&spec, want, tt.ID, false); got != spec.Veto(want) {
						t.Fatalf("trial %d step %d: Veto(t%d) of %v under caps %v = %v", trial, step, tt.ID, want, spec.Caps, got)
					}
				}
			}
			if len(enabled) == 0 {
				break
			}
			tid := enabled[rng.Intn(len(enabled))]
			fired := m.Fire(n.Transitions[tid])
			over := false
			for _, v := range fired {
				if v > 12 {
					over = true
				}
			}
			if over {
				break
			}
			m = fired
			ft.Update(next, cur, tid, m)
			ft.Init(full, m)
			if got, want := bitsOf(next, len(part)), enabledIdx(n, part, m); !equalInts(got, want) || !equalInts(got, bitsOf(full, len(part))) {
				t.Fatalf("trial %d step %d after t%d: Update %v, Init %v, want %v (touched %v)",
					trial, step, tid, got, bitsOf(full, len(part)), want, ft.touchedOf(tid))
			}
			cur, next = next, cur
		}
		for tid, ei := range ECSIndex(part, len(n.Transitions)) {
			if ft.ECSOf(tid) != ei {
				t.Fatalf("trial %d: ECSOf(%d) = %d, want %d", trial, tid, ft.ECSOf(tid), ei)
			}
		}
	}
}

// TestFiringTableSelfLoopUntouched: a pure self loop changes no
// token count, so firing it must touch no ECS keyed on that place.
func TestFiringTableSelfLoopUntouched(t *testing.T) {
	n := New("selfloop")
	p := n.AddPlace("p", PlaceChannel, 1)
	q := n.AddPlace("q", PlaceChannel, 1)
	tl := n.AddTransition("loop", TransNormal)
	n.AddSelfLoop(p, tl, 1)
	n.AddArc(q, tl, 1)
	n.AddArcTP(tl, q, 2)
	reader := n.AddTransition("reader", TransNormal)
	n.AddArc(p, reader, 1)
	part := n.ECSPartition()
	ft := NewFiringTable(n, part)
	readerECS := ft.ECSOf(reader.ID)
	for _, e := range ft.touchedOf(tl.ID) {
		if int(e) == readerECS {
			t.Fatalf("self-loop firing should not touch the reader's ECS (touched %v)", ft.touchedOf(tl.ID))
		}
	}
	// q's count changes (consume 1, produce 2): the loop's own ECS is
	// keyed on q and must be touched.
	found := false
	for _, e := range ft.touchedOf(tl.ID) {
		if int(e) == ft.ECSOf(tl.ID) {
			found = true
		}
	}
	if !found {
		t.Fatalf("q-delta should touch the loop ECS (touched %v)", ft.touchedOf(tl.ID))
	}
}

// TestFiringTableZeroNetDelta: a transition whose every arc is a
// self loop (zero net token delta) touches nothing, and Update after
// firing it is a pure copy of the parent's set — the degenerate case
// the incremental analysis exists to shortcut.
func TestFiringTableZeroNetDelta(t *testing.T) {
	n := New("zerodelta")
	p := n.AddPlace("p", PlaceChannel, 2)
	q := n.AddPlace("q", PlaceChannel, 2)
	spin := n.AddTransition("spin", TransNormal)
	n.AddSelfLoop(p, spin, 1)
	n.AddSelfLoop(q, spin, 1)
	take := n.AddTransition("take", TransNormal)
	n.AddArc(p, take, 1)
	put := n.AddTransition("put", TransNormal)
	n.AddArc(q, put, 1)
	n.AddArcTP(put, p, 1)
	part := n.ECSPartition()
	ft := NewFiringTable(n, part)
	if got := ft.touchedOf(spin.ID); len(got) != 0 {
		t.Fatalf("zero-net-delta firing should touch no ECS, touched %v", got)
	}
	m := n.InitialMarking()
	cur := make([]uint64, ft.Stride())
	ft.Init(cur, m)
	next := make([]uint64, ft.Stride())
	m2 := m.Fire(spin)
	if !m2.Equal(m) {
		t.Fatalf("zero-net-delta firing changed the marking: %v -> %v", m, m2)
	}
	ft.Update(next, cur, spin.ID, m2)
	if got, want := bitsOf(next, len(part)), bitsOf(cur, len(part)); !equalInts(got, want) {
		t.Fatalf("Update after zero-delta firing changed the set: %v -> %v", want, got)
	}
	// The walk invariant holds through interleaved zero-delta firings.
	seq := []int{spin.ID, take.ID, spin.ID, put.ID, spin.ID}
	for step, tid := range seq {
		if !m.Enabled(n.Transitions[tid]) {
			t.Fatalf("step %d: %s unexpectedly disabled at %v", step, n.Transitions[tid].Name, m)
		}
		m = m.Fire(n.Transitions[tid])
		ft.Update(next, cur, tid, m)
		if got, want := bitsOf(next, len(part)), enabledIdx(n, part, m); !equalInts(got, want) {
			t.Fatalf("step %d (%s): Update %v, want %v", step, n.Transitions[tid].Name, got, want)
		}
		cur, next = next, cur
	}
}

// TestFiringTableSharedPresetECSs: several distinct ECSs keyed on
// exactly the same places (same preset places, different weights —
// equal-conflict grouping is by weighted preset, so they stay
// separate). Any firing that changes those places must re-evaluate all
// of them, and the maintained sets must flip independently as the
// shared places drain.
func TestFiringTableSharedPresetECSs(t *testing.T) {
	n := New("sharedpreset")
	a := n.AddPlace("a", PlaceChannel, 6)
	b := n.AddPlace("b", PlaceChannel, 6)
	// Three ECSs over preset {a, b} with weights (1,1), (2,2), (3,5);
	// the first has two members (a genuine multi-transition ECS).
	t11a := n.AddTransition("w11a", TransNormal)
	n.AddArc(a, t11a, 1)
	n.AddArc(b, t11a, 1)
	t11b := n.AddTransition("w11b", TransNormal)
	n.AddArc(a, t11b, 1)
	n.AddArc(b, t11b, 1)
	t22 := n.AddTransition("w22", TransNormal)
	n.AddArc(a, t22, 2)
	n.AddArc(b, t22, 2)
	t35 := n.AddTransition("w35", TransNormal)
	n.AddArc(a, t35, 3)
	n.AddArc(b, t35, 5)
	part := n.ECSPartition()
	ft := NewFiringTable(n, part)
	if len(part) != 3 {
		t.Fatalf("want 3 ECSs over the shared preset, got %d", len(part))
	}
	if ft.ECSOf(t11a.ID) != ft.ECSOf(t11b.ID) {
		t.Fatal("equal-weight transitions should share an ECS")
	}
	// Every transition's firing changes both shared places, so every
	// ECS must appear in every touched list.
	for _, tt := range n.Transitions {
		touched := ft.touchedOf(tt.ID)
		if len(touched) != len(part) {
			t.Fatalf("firing %s must touch all %d ECSs, touched %v", tt.Name, len(part), touched)
		}
	}
	// Drain the shared places: (6,6) -w35-> (3,1) -w11-> (2,0); the
	// three ECSs disable at different points, all tracked.
	m := n.InitialMarking()
	cur := make([]uint64, ft.Stride())
	next := make([]uint64, ft.Stride())
	ft.Init(cur, m)
	if got := bitsOf(cur, len(part)); len(got) != 3 {
		t.Fatalf("all ECSs enabled at start, got %v", got)
	}
	for step, tid := range []int{t35.ID, t11a.ID} {
		m = m.Fire(n.Transitions[tid])
		ft.Update(next, cur, tid, m)
		if got, want := bitsOf(next, len(part)), enabledIdx(n, part, m); !equalInts(got, want) {
			t.Fatalf("step %d: Update %v, want %v", step, got, want)
		}
		cur, next = next, cur
	}
	if got := bitsOf(cur, len(part)); len(got) != 0 {
		t.Fatalf("after draining b, no ECS should be enabled, got %v", got)
	}
}
