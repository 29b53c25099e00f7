package pnml

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/petri"
)

// TestParseMalformed: every out-of-subset or broken document is
// rejected with a position-bearing *ParseError — never a panic, never a
// silently degraded net. The wantMsg fragment pins which rule fired so
// a refactor cannot swap one rejection for another.
func TestParseMalformed(t *testing.T) {
	cases := []struct {
		name    string
		doc     string
		wantMsg string
	}{
		{
			"empty document",
			"",
			"empty document",
		},
		{
			"wrong root element",
			`<nets><net id="n"/></nets>`,
			"root element is <nets>",
		},
		{
			"no net",
			`<pnml></pnml>`,
			"no <net>",
		},
		{
			"two nets",
			`<pnml><net id="a" type="ptnet"></net><net id="b" type="ptnet"></net></pnml>`,
			"multiple <net>",
		},
		{
			"truncated mid-element",
			`<pnml><net id="n" type="ptnet"><place id="p1">`,
			"unexpected EOF",
		},
		{
			"mismatched close tag",
			`<pnml><net id="n" type="ptnet"></nte></pnml>`,
			"</nte>",
		},
		{
			"content after root",
			`<pnml><net id="n" type="ptnet"></net></pnml><pnml/>`,
			"after </pnml>",
		},
		{
			"duplicate place id",
			`<pnml><net id="n" type="ptnet"><place id="p"/><place id="p"/></net></pnml>`,
			`duplicate id "p"`,
		},
		{
			"id shared across kinds",
			`<pnml><net id="n" type="ptnet"><place id="x"/><transition id="x"/></net></pnml>`,
			"already declared as a place",
		},
		{
			"place without id",
			`<pnml><net id="n" type="ptnet"><place/></net></pnml>`,
			"<place> requires an id",
		},
		{
			"transition without id",
			`<pnml><net id="n" type="ptnet"><transition/></net></pnml>`,
			"<transition> requires an id",
		},
		{
			"arc without source",
			`<pnml><net id="n" type="ptnet"><place id="p"/><transition id="t"/><arc id="a" target="t"/></net></pnml>`,
			"missing source",
		},
		{
			"dangling arc source",
			`<pnml><net id="n" type="ptnet"><place id="p"/><transition id="t"/><arc id="a" source="ghost" target="t"/></net></pnml>`,
			`undeclared source "ghost"`,
		},
		{
			"dangling arc target",
			`<pnml><net id="n" type="ptnet"><place id="p"/><transition id="t"/><arc id="a" source="p" target="ghost"/></net></pnml>`,
			`undeclared target "ghost"`,
		},
		{
			"place-to-place arc",
			`<pnml><net id="n" type="ptnet"><place id="p"/><place id="q"/><arc id="a" source="p" target="q"/></net></pnml>`,
			"arcs must alternate",
		},
		{
			"transition-to-transition arc",
			`<pnml><net id="n" type="ptnet"><transition id="t"/><transition id="u"/><arc id="a" source="t" target="u"/></net></pnml>`,
			"arcs must alternate",
		},
		{
			"zero arc weight",
			`<pnml><net id="n" type="ptnet"><place id="p"/><transition id="t"/><arc id="a" source="p" target="t"><inscription><text>0</text></inscription></arc></net></pnml>`,
			"non-positive weight 0",
		},
		{
			"negative arc weight",
			`<pnml><net id="n" type="ptnet"><place id="p"/><transition id="t"/><arc id="a" source="p" target="t"><inscription><text>-3</text></inscription></arc></net></pnml>`,
			"non-positive weight -3",
		},
		{
			"non-integer arc weight",
			`<pnml><net id="n" type="ptnet"><place id="p"/><transition id="t"/><arc id="a" source="p" target="t"><inscription><text>2.5</text></inscription></arc></net></pnml>`,
			"not an integer weight",
		},
		{
			"negative initial marking",
			`<pnml><net id="n" type="ptnet"><place id="p"><initialMarking><text>-1</text></initialMarking></place></net></pnml>`,
			"negative initial marking",
		},
		{
			"initial marking above MaxTokens",
			`<pnml><net id="n" type="ptnet"><place id="p"><initialMarking><text>2147483648</text></initialMarking></place></net></pnml>`,
			"initial marking 2147483648 above 2147483647",
		},
		{
			"arc weight above MaxTokens",
			`<pnml><net id="n" type="ptnet"><place id="p"/><transition id="t"/><arc id="a" source="p" target="t"><inscription><text>2147483648</text></inscription></arc></net></pnml>`,
			"weight 2147483648 above 2147483647",
		},
		{
			"repeated arcs summing above MaxTokens",
			`<pnml><net id="n" type="ptnet"><place id="p"/><transition id="t"/><arc id="a" source="t" target="p"><inscription><text>2147483647</text></inscription></arc><arc id="b" source="t" target="p"/></net></pnml>`,
			"repeated weights sum to 2147483648",
		},
		{
			"non-integer initial marking",
			`<pnml><net id="n" type="ptnet"><place id="p"><initialMarking><text>many</text></initialMarking></place></net></pnml>`,
			"not an integer",
		},
		{
			"inhibitor arc",
			`<pnml><net id="n" type="ptnet"><place id="p"/><transition id="t"/><arc id="a" source="p" target="t"><type value="inhibitor"/></arc></net></pnml>`,
			`arc type "inhibitor" is not modeled`,
		},
		{
			"reset arc",
			`<pnml><net id="n" type="ptnet"><place id="p"/><transition id="t"/><arc id="a" source="p" target="t"><type value="reset"/></arc></net></pnml>`,
			`arc type "reset" is not modeled`,
		},
		{
			"colored net type",
			`<pnml><net id="n" type="http://www.pnml.org/version-2009/grammar/symmetricnet"></net></pnml>`,
			"colored/high-level net",
		},
		{
			"unknown net type",
			`<pnml><net id="n" type="http://example.org/timed-net"></net></pnml>`,
			"unsupported net type",
		},
		{
			"hlinitialMarking",
			`<pnml><net id="n" type="ptnet"><place id="p"><hlinitialMarking/></place></net></pnml>`,
			"colored-net construct",
		},
		{
			"place type annotation",
			`<pnml><net id="n" type="ptnet"><place id="p"><type/></place></net></pnml>`,
			"colored-net construct",
		},
		{
			"hlinscription",
			`<pnml><net id="n" type="ptnet"><place id="p"/><transition id="t"/><arc id="a" source="p" target="t"><hlinscription/></arc></net></pnml>`,
			"colored-net construct",
		},
		{
			"transition condition",
			`<pnml><net id="n" type="ptnet"><transition id="t"><condition/></transition></net></pnml>`,
			"colored-net construct",
		},
		{
			"declaration block",
			`<pnml><net id="n" type="ptnet"><declaration/></net></pnml>`,
			"colored-net construct",
		},
		{
			"referencePlace",
			`<pnml><net id="n" type="ptnet"><referencePlace id="r" ref="p"/></net></pnml>`,
			"flatten reference nodes",
		},
		{
			"place capacity",
			`<pnml><net id="n" type="ptnet"><place id="p"><capacity><text>3</text></capacity></place></net></pnml>`,
			"<capacity> is not modeled",
		},
		{
			"unknown element in net",
			`<pnml><net id="n" type="ptnet"><timing/></net></pnml>`,
			"unsupported <timing>",
		},
		{
			"unknown element in place",
			`<pnml><net id="n" type="ptnet"><place id="p"><delay/></place></net></pnml>`,
			"unsupported <delay>",
		},
		{
			"element inside text label",
			`<pnml><net id="n" type="ptnet"><place id="p"><name><text><b>x</b></text></name></place></net></pnml>`,
			"unexpected <b> inside <text>",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, err := ParseBytes([]byte(c.doc))
			if err == nil {
				t.Fatalf("accepted malformed document (got net with %d places)", len(n.Places))
			}
			if !strings.Contains(err.Error(), c.wantMsg) {
				t.Errorf("error %q does not mention %q", err, c.wantMsg)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Errorf("error %T is not a *ParseError (no position)", err)
			} else if pe.Line < 1 {
				t.Errorf("ParseError line %d, want >= 1", pe.Line)
			}
			if !strings.Contains(err.Error(), "line ") {
				t.Errorf("error %q carries no position", err)
			}
		})
	}
}

// TestParseTokenLimit: a count of exactly petri.MaxTokens imports, as
// an initial marking and as an arc weight; one more is a *ParseError
// with a line and a column (TestParseMalformed pins the messages).
func TestParseTokenLimit(t *testing.T) {
	doc := func(initial, weight string) string {
		return `<pnml><net id="n" type="ptnet"><place id="p"><initialMarking><text>` + initial + `</text></initialMarking></place>` +
			`<transition id="t"/><arc id="a" source="p" target="t"><inscription><text>` + weight + `</text></inscription></arc></net></pnml>`
	}
	for _, bad := range []string{doc("2147483648", "1"), doc("1", "2147483648")} {
		_, err := ParseBytes([]byte(bad))
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line < 1 || pe.Col < 1 {
			t.Errorf("err = %v, want a *ParseError with a line and a column", err)
		}
	}
	n, err := ParseBytes([]byte(doc("2147483647", "2147483647")))
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Places[0].Initial; got != petri.MaxTokens {
		t.Errorf("initial marking = %d, want %d", got, petri.MaxTokens)
	}
	if got := n.Transitions[0].Weight(0); got != petri.MaxTokens {
		t.Errorf("arc weight = %d, want %d", got, petri.MaxTokens)
	}
	if got := n.InitialMarking()[0]; got != petri.MaxTokens {
		t.Errorf("initial token vector holds %d, want %d", got, petri.MaxTokens)
	}
}

// TestParsePageBomb: a pathological page-nesting document hits the
// depth guard instead of exhausting the stack.
func TestParsePageBomb(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`<pnml><net id="n" type="ptnet">`)
	for i := 0; i < maxPageDepth+2; i++ {
		sb.WriteString("<page>")
	}
	for i := 0; i < maxPageDepth+2; i++ {
		sb.WriteString("</page>")
	}
	sb.WriteString(`</net></pnml>`)
	_, err := ParseBytes([]byte(sb.String()))
	if err == nil || !strings.Contains(err.Error(), "nesting deeper") {
		t.Fatalf("err = %v, want the page-depth guard", err)
	}
}

// TestParseErrorPosition: the reported line number points into the
// document, not at line 1 — the rejection in this doc is on line 4.
func TestParseErrorPosition(t *testing.T) {
	const doc = `<pnml>
 <net id="n" type="ptnet">
  <place id="p"/>
  <place id="p"/>
 </net>
</pnml>`
	_, err := ParseBytes([]byte(doc))
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ParseError", err)
	}
	if pe.Line != 4 {
		t.Errorf("error at line %d, want 4: %v", pe.Line, err)
	}
}
