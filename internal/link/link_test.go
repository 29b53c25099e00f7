package link

import (
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/flowc"
	"repro/internal/petri"
)

const pairSrc = `
PROCESS w (In DPORT go, Out DPORT out) {
  int v;
  while (1) {
    READ_DATA(go, &v, 1);
    WRITE_DATA(out, v, 1);
  }
}

PROCESS r (In DPORT in, Out DPORT res) {
  int v;
  while (1) {
    READ_DATA(in, &v, 1);
    WRITE_DATA(res, v + 1, 1);
  }
}
`

func compilePair(t *testing.T) []*compile.CompiledProcess {
	t.Helper()
	f, err := flowc.ParseFile(pairSrc)
	if err != nil {
		t.Fatal(err)
	}
	var procs []*compile.CompiledProcess
	for _, p := range f.Processes {
		cp, err := compile.CompileProcess(p)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, cp)
	}
	return procs
}

func pairSpec(bound int) *Spec {
	return &Spec{
		Name: "pair",
		Channels: []ChannelSpec{
			{Name: "C", From: "w.out", To: "r.in", Bound: bound},
		},
		Inputs:  []InputSpec{{Name: "go", To: "w.go", Rate: 1}},
		Outputs: []OutputSpec{{Name: "res", From: "r.res", Rate: 1}},
	}
}

// producersOf returns the IDs of the transitions producing into place
// id, in ascending order.
func producersOf(n *petri.Net, id int) []int {
	var out []int
	for _, t := range n.Transitions {
		if t.OutWeight(id) > 0 {
			out = append(out, t.ID)
		}
	}
	return out
}

func TestLinkMergesPorts(t *testing.T) {
	sys, err := Link(compilePair(t), pairSpec(0))
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	ch := sys.Net.PlaceByName("C")
	if ch == nil || ch.Kind != petri.PlaceChannel {
		t.Fatalf("channel place missing or wrong kind: %+v", ch)
	}
	// The writer produces into C and the reader consumes from it.
	producers := producersOf(sys.Net, ch.ID)
	consumers := sys.Net.Successors(ch.ID)
	if len(producers) != 1 || len(consumers) != 1 {
		t.Fatalf("producers %v consumers %v", producers, consumers)
	}
	if sys.Net.Transitions[producers[0]].Process != "w" {
		t.Error("producer should be in process w")
	}
	if sys.Net.Transitions[consumers[0]].Process != "r" {
		t.Error("consumer should be in process r")
	}
	// Bindings resolve both endpoints to the same channel.
	bw := sys.PortBinding("w", "out")
	br := sys.PortBinding("r", "in")
	if bw == nil || br == nil || bw.Channel != br.Channel {
		t.Error("bindings do not share the channel")
	}
	if b := sys.PortBinding("w", "go"); b == nil || b.Kind != BindEnvIn {
		t.Error("go should bind to an environment input")
	}
	if b := sys.PortBinding("r", "res"); b == nil || b.Kind != BindEnvOut {
		t.Error("res should bind to an environment output")
	}
}

func TestLinkBoundedChannelComplement(t *testing.T) {
	sys, err := Link(compilePair(t), pairSpec(3))
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	comp := sys.Net.PlaceByName("C~space")
	if comp == nil || comp.Kind != petri.PlaceComplement || comp.Initial != 3 {
		t.Fatalf("complement place wrong: %+v", comp)
	}
	// Writer consumes space; reader releases it.
	ch := sys.Net.PlaceByName("C")
	writer := sys.Net.Transitions[producersOf(sys.Net, ch.ID)[0]]
	if writer.Weight(comp.ID) != 1 {
		t.Error("writer should consume one space token")
	}
	reader := sys.Net.Transitions[sys.Net.Successors(ch.ID)[0]]
	if reader.OutWeight(comp.ID) != 1 {
		t.Error("reader should release one space token")
	}
	// Invariant: C + C~space == 3 in every reachable marking.
	r := sys.Net.Explore(petri.ExploreOptions{FireSources: true, MaxTokensPerPlace: 5, MaxMarkings: 500})
	for id := range r.Len() {
		if m := r.Store.At(petri.MarkID(id)); m[ch.ID]+m[comp.ID] != 3 {
			t.Errorf("marking %s violates the complement invariant", m.Key())
		}
	}
}

func TestLinkBoundSmallerThanBurst(t *testing.T) {
	f, err := flowc.ParseFile(`
PROCESS w (In DPORT go, Out DPORT out) {
  int line[4];
  while (1) {
    READ_DATA(go, line, 1);
    WRITE_DATA(out, line, 4);
  }
}
PROCESS r (In DPORT in) {
  int line[4];
  while (1) {
    READ_DATA(in, line, 4);
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	var procs []*compile.CompiledProcess
	for _, p := range f.Processes {
		cp, err := compile.CompileProcess(p)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, cp)
	}
	_, err = Link(procs, &Spec{
		Name:     "burst",
		Channels: []ChannelSpec{{Name: "C", From: "w.out", To: "r.in", Bound: 2}},
		Inputs:   []InputSpec{{Name: "go", To: "w.go"}},
	})
	if err == nil || !strings.Contains(err.Error(), "bound") {
		t.Errorf("bound smaller than burst should fail, got %v", err)
	}
}

func TestLinkErrors(t *testing.T) {
	cases := []struct {
		name string
		spec *Spec
	}{
		{"unconnected port", &Spec{Name: "s",
			Channels: []ChannelSpec{{Name: "C", From: "w.out", To: "r.in"}},
			Inputs:   []InputSpec{{Name: "go", To: "w.go"}},
			// r.res left unconnected
		}},
		{"double connection", &Spec{Name: "s",
			Channels: []ChannelSpec{{Name: "C", From: "w.out", To: "r.in"}},
			Inputs:   []InputSpec{{Name: "go", To: "w.go"}, {Name: "go2", To: "w.go"}},
			Outputs:  []OutputSpec{{Name: "res", From: "r.res"}},
		}},
		{"wrong direction", &Spec{Name: "s",
			Channels: []ChannelSpec{{Name: "C", From: "r.in", To: "w.out"}},
		}},
		{"unknown process", &Spec{Name: "s",
			Channels: []ChannelSpec{{Name: "C", From: "zz.out", To: "r.in"}},
		}},
		{"malformed ref", &Spec{Name: "s",
			Channels: []ChannelSpec{{Name: "C", From: "wout", To: "r.in"}},
		}},
	}
	for _, c := range cases {
		if _, err := Link(compilePair(t), c.spec); err == nil {
			t.Errorf("%s: Link should fail", c.name)
		}
	}
}

func TestSpecParseFormatRoundTrip(t *testing.T) {
	text := `system pair
channel C w.out -> r.in bound=3
input go -> w.go uncontrollable
input poll -> x.p controllable rate=2
output r.res -> res rate=2
`
	spec, err := ParseSpec(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if spec.Channels[0].Bound != 3 || spec.Inputs[1].Rate != 2 || !spec.Inputs[1].Controllable {
		t.Errorf("parsed spec wrong: %+v", spec)
	}
	// Long lines must round-trip too: the 65,515-byte name sits just
	// under bufio.Scanner's default 64 KiB token limit, and atLimit is
	// exactly maxSpecLine bytes long.
	long := "system s\ninput " + strings.Repeat("n", 65515) + " -> p.q\n"
	atLimit := "system s\noutput " + strings.Repeat("n", maxSpecLine-len("output  -> o")) + " -> o"
	for _, text := range []string{text, long, atLimit} {
		spec, err := ParseSpec(strings.NewReader(text))
		if err != nil {
			t.Fatalf("ParseSpec: %v", err)
		}
		var sb strings.Builder
		if err := FormatSpec(spec, &sb); err != nil {
			t.Fatal(err)
		}
		spec2, err := ParseSpec(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		var sb2 strings.Builder
		FormatSpec(spec2, &sb2)
		if sb.String() != sb2.String() {
			t.Errorf("spec format not a fixed point:\n%.200s\nvs\n%.200s", sb.String(), sb2.String())
		}
	}
	// One byte past the limit is refused with its line number, with or
	// without a trailing newline.
	for _, tail := range []string{"", "\n"} {
		_, err := ParseSpec(strings.NewReader(atLimit + "x" + tail))
		if err == nil || !strings.HasPrefix(err.Error(), "line 2: ") {
			t.Errorf("over-long line (tail %q): err = %v, want a line 2 error", tail, err)
		}
	}
}

func TestSpecParseErrors(t *testing.T) {
	cases := []string{
		"channel C a.b -> c.d",        // missing system line
		"system s\nchannel C a.b c.d", // missing arrow
		"system s\ninput x y z",       // malformed input
		"system s\nchannel C a.b -> c.d bound=-1",
		"system s\nbogus",
		"system s\ninput x -> a.b rate=0",
		"system s\nchannel C a.b -> c.d bound=2147483648",
		"system s\ninput x -> a.b rate=2147483648",
		"system s\noutput a.b -> y rate=2147483648",
	}
	for _, src := range cases {
		if _, err := ParseSpec(strings.NewReader(src)); err == nil {
			t.Errorf("ParseSpec(%q) should fail", src)
		}
	}
	// A bound or rate of exactly petri.MaxTokens is a valid token count.
	ok := "system s\nchannel C a.b -> c.d bound=2147483647\ninput x -> a.b rate=2147483647\noutput a.b -> y rate=2147483647"
	if _, err := ParseSpec(strings.NewReader(ok)); err != nil {
		t.Errorf("ParseSpec(%q): %v", ok, err)
	}
}
