package petri

import (
	"strings"
	"testing"
)

// sampleNet builds a net with every attribute Format prints: an
// initial marking, a bound, non-default place and transition kinds, a
// process, a label and arc weights.
func sampleNet() *Net {
	n := New("demo")
	p0 := n.AddPlace("p0", PlaceInternal, 1)
	buf := n.AddPlace("buf", PlaceChannel, 0)
	buf.Bound = 4
	a := n.AddTransition("a", TransSourceUnc)
	work := n.AddTransition("work", TransNormal)
	work.Process, work.Label = "P", "T"
	out := n.AddTransition("out", TransSink)
	n.AddArcTP(a, buf, 2)
	n.AddArc(buf, work, 2)
	n.AddArc(p0, work, 1)
	n.AddArcTP(work, p0, 1)
	n.AddArc(buf, out, 1)
	return n
}

// TestFormat pins the text Format prints: declarations in ID order,
// then each transition's input and output arcs in place order, with
// default attributes left out.
func TestFormat(t *testing.T) {
	var out strings.Builder
	if err := sampleNet().Format(&out); err != nil {
		t.Fatalf("Format: %v", err)
	}
	const want = `net demo
place p0 init=1
place buf bound=4 kind=channel
trans a kind=source-unc
trans work process=P label=T
trans out kind=sink
arc a -> buf w=2
arc p0 -> work
arc buf -> work w=2
arc work -> p0
arc buf -> out
`
	if out.String() != want {
		t.Errorf("Format:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestDotOutput pins the DOT text: places as circles with their initial
// marking, a source as cds, weights above 1 as edge labels.
func TestDotOutput(t *testing.T) {
	var sb strings.Builder
	if err := sampleNet().Dot(&sb); err != nil {
		t.Fatal(err)
	}
	const want = `digraph "demo" {
  rankdir=TB;
  p0 [shape=circle label="p0\n1"];
  p1 [shape=circle label="buf"];
  t0 [shape=cds label="a"];
  t1 [shape=box label="work"];
  t2 [shape=box label="out"];
  t0 -> p1 [label="2"];
  p1 -> t1 [label="2"];
  p0 -> t1;
  t1 -> p0;
  p1 -> t2;
}
`
	if sb.String() != want {
		t.Errorf("Dot:\n%s\nwant:\n%s", sb.String(), want)
	}
}
