package petri

import (
	"strings"
	"testing"
)

const sampleNet = `net demo
place p0 init=1
place buf kind=channel bound=4
trans a kind=source-unc
trans work process=P label=T
trans out kind=sink
arc a -> buf w=2
arc buf -> work w=2
arc p0 -> work
arc work -> p0
arc buf -> out
`

func TestParseFormatRoundTrip(t *testing.T) {
	n, err := Parse(strings.NewReader(sampleNet))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if n.Name != "demo" {
		t.Errorf("name = %q", n.Name)
	}
	if p := n.PlaceByName("buf"); p == nil || p.Bound != 4 || p.Kind != PlaceChannel {
		t.Errorf("buf parsed wrong: %+v", p)
	}
	if tr := n.TransitionByName("work"); tr == nil || tr.Process != "P" || tr.Label != "T" {
		t.Errorf("work parsed wrong: %+v", tr)
	}
	var out strings.Builder
	if err := n.Format(&out); err != nil {
		t.Fatalf("Format: %v", err)
	}
	// Round trip: parse the formatted text and format again; fixed point.
	n2, err := Parse(strings.NewReader(out.String()))
	if err != nil {
		t.Fatalf("Parse(Format): %v\n%s", err, out.String())
	}
	var out2 strings.Builder
	if err := n2.Format(&out2); err != nil {
		t.Fatal(err)
	}
	if out.String() != out2.String() {
		t.Errorf("format not a fixed point:\n%s\nvs\n%s", out.String(), out2.String())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"place",                            // missing name
		"arc a -> b",                       // unknown endpoints
		"place p init=x",                   // bad integer
		"trans t kind=bogus",               // bad kind
		"wibble",                           // unknown directive
		"place p\narc p -> p",              // place-to-place
		"place p kind=nope",                // bad place kind
		"place p init=1 extra=1",           // unknown attribute
		"place p\ntrans t\narc p -> t w=0", // non-positive weight
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestParseTokenLimit: init=, bound= and w= accept exactly MaxTokens
// and reject one more, as do two arcs whose weights merge past it.
func TestParseTokenLimit(t *testing.T) {
	for _, c := range []struct{ ok, bad string }{
		{"place p init=2147483647", "place p init=2147483648"},
		{"place p bound=2147483647", "place p bound=2147483648"},
		{"place p\ntrans t\narc p -> t w=2147483647", "place p\ntrans t\narc p -> t w=2147483648"},
		{"place p\ntrans t\narc t -> p w=2147483646\narc t -> p", "place p\ntrans t\narc t -> p w=2147483647\narc t -> p"},
	} {
		if _, err := Parse(strings.NewReader(c.ok)); err != nil {
			t.Errorf("Parse(%q): %v", c.ok, err)
		}
		if _, err := Parse(strings.NewReader(c.bad)); err == nil || !strings.Contains(err.Error(), "2147483647") {
			t.Errorf("Parse(%q) = %v, want an error naming the limit", c.bad, err)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := "# a comment\nnet c # trailing\nplace p init=1 # note\n"
	n, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if n.Name != "c" || len(n.Places) != 1 || n.Places[0].Initial != 1 {
		t.Errorf("comment handling broken: %+v", n)
	}
}

func TestDotOutput(t *testing.T) {
	n, err := Parse(strings.NewReader(sampleNet))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := n.Dot(&sb); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()
	for _, want := range []string{"digraph", "shape=circle", "shape=cds", `label="2"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q:\n%s", want, dot)
		}
	}
}
