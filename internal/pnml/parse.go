package pnml

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/petri"
)

// ParseError is a PNML rejection with the 1-based line and column of
// the offending construct. Every error path in this package that can be
// tied to a document position produces one, so a malformed or
// out-of-subset file is diagnosable without opening it in an XML tool.
type ParseError struct {
	Line, Col int
	Msg       string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("pnml: line %d:%d: %s", e.Line, e.Col, e.Msg)
}

// maxPageDepth bounds <page> nesting so a hostile document cannot drive
// the recursive-descent walker into stack exhaustion.
const maxPageDepth = 64

// Parse reads a PNML document holding exactly one place/transition net
// and adapts it to a petri.Net: places and transitions are numbered in
// document order (pages flattened depth-first), names fall back to the
// XML id when the <name> label is absent, and duplicate arcs between
// the same (place, transition) pair accumulate their weights like
// petri.Net.AddArc. Features outside the supported subset — inhibitor,
// reset or read arc types, colored/high-level annotations, reference
// nodes — are rejected with a *ParseError carrying the position; they
// are never silently dropped.
func Parse(r io.Reader) (*petri.Net, error) {
	p := &parser{dec: xml.NewDecoder(r), ids: map[string]nodeRef{}}
	if err := p.run(); err != nil {
		return nil, err
	}
	return p.build()
}

// ParseBytes is Parse over an in-memory document.
func ParseBytes(b []byte) (*petri.Net, error) {
	return Parse(strings.NewReader(string(b)))
}

// nodeKind classifies a declared XML id.
type nodeKind int

const (
	kindPlace nodeKind = iota
	kindTrans
	kindArc
)

func (k nodeKind) String() string {
	switch k {
	case kindPlace:
		return "place"
	case kindTrans:
		return "transition"
	case kindArc:
		return "arc"
	}
	return "node"
}

// nodeRef resolves an id to its slot in the parsed model.
type nodeRef struct {
	kind  nodeKind
	index int
}

// parsedPlace, parsedTrans and parsedArc are the document model the
// builder assembles into a petri.Net once every id is known (arcs may
// reference nodes declared later or on other pages).
type parsedPlace struct {
	id, name string
	initial  int
}

type parsedTrans struct {
	id, name string
}

type parsedArc struct {
	source, target string
	weight         int
	line, col      int
}

type parser struct {
	dec     *xml.Decoder
	netName string
	netSeen bool
	places  []parsedPlace
	trans   []parsedTrans
	arcs    []parsedArc
	ids     map[string]nodeRef
}

// errf builds a ParseError at the decoder's current position.
func (p *parser) errf(format string, args ...any) *ParseError {
	line, col := p.dec.InputPos()
	return &ParseError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// token wraps Decoder.Token, converting XML-level failures (truncated
// documents, mismatched tags, bad entities) into position-bearing
// ParseErrors.
func (p *parser) token() (xml.Token, error) {
	tok, err := p.dec.Token()
	if err == nil {
		return tok, nil
	}
	if err == io.EOF {
		return nil, io.EOF
	}
	if se, ok := err.(*xml.SyntaxError); ok {
		return nil, &ParseError{Line: se.Line, Msg: se.Msg}
	}
	if err == io.ErrUnexpectedEOF {
		return nil, p.errf("unexpected end of document")
	}
	return nil, p.errf("%v", err)
}

// run walks the document: exactly one <pnml> root holding exactly one
// <net>.
func (p *parser) run() error {
	root, err := p.nextStart()
	if err == io.EOF {
		return p.errf("empty document: no <pnml> root element")
	}
	if err != nil {
		return err
	}
	if root.Name.Local != "pnml" {
		return p.errf("root element is <%s>, want <pnml>", root.Name.Local)
	}
	for {
		tok, err := p.token()
		if err == io.EOF {
			return p.errf("unexpected end of document inside <pnml>")
		}
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "net" {
				return p.errf("unsupported <%s> under <pnml>: only <net> is modeled", t.Name.Local)
			}
			if p.netSeen {
				return p.errf("multiple <net> elements: the P/T subset loads exactly one net per document")
			}
			p.netSeen = true
			if err := p.parseNet(t); err != nil {
				return err
			}
		case xml.EndElement:
			// </pnml>: drain trailing whitespace until EOF.
			if !p.netSeen {
				return p.errf("document holds no <net> element")
			}
			return p.drainEpilogue()
		}
	}
}

// drainEpilogue consumes tokens after </pnml>, rejecting anything but
// whitespace and comments.
func (p *parser) drainEpilogue() error {
	for {
		tok, err := p.token()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if se, ok := tok.(xml.StartElement); ok {
			return p.errf("unexpected <%s> after </pnml>", se.Name.Local)
		}
	}
}

// nextStart skips character data, comments and processing instructions
// until the next start element.
func (p *parser) nextStart() (xml.StartElement, error) {
	for {
		tok, err := p.token()
		if err != nil {
			return xml.StartElement{}, err
		}
		if se, ok := tok.(xml.StartElement); ok {
			return se, nil
		}
	}
}

// attr returns the value of the named attribute, ignoring namespaces.
func attr(se xml.StartElement, name string) (string, bool) {
	for _, a := range se.Attr {
		if a.Name.Local == name {
			return a.Value, true
		}
	}
	return "", false
}

// parseNet handles <net>: the type URI must be the P/T grammar (or
// absent — several tools omit it), and the children are pages, nodes
// and arcs.
func (p *parser) parseNet(se xml.StartElement) error {
	if typ, ok := attr(se, "type"); ok && typ != "" {
		lt := strings.ToLower(typ)
		switch {
		case strings.Contains(lt, "ptnet"):
			// The supported subset.
		case strings.Contains(lt, "symmetricnet"), strings.Contains(lt, "highlevel"), strings.Contains(lt, "hlpng"), strings.Contains(lt, "pt-hlpng"):
			return p.errf("net type %q is a colored/high-level net: only the P/T subset is modeled", typ)
		default:
			return p.errf("unsupported net type %q (want the ptnet grammar)", typ)
		}
	}
	return p.parsePageBody("net", 0, true)
}

// parsePageBody parses the shared body of <net> and <page>: nodes,
// arcs, nested pages, and decorative labels. topLevel selects whether a
// <name> label names the net.
func (p *parser) parsePageBody(parent string, depth int, topLevel bool) error {
	if depth > maxPageDepth {
		return p.errf("<page> nesting deeper than %d levels", maxPageDepth)
	}
	for {
		tok, err := p.token()
		if err == io.EOF {
			return p.errf("unexpected end of document inside <%s>", parent)
		}
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "page":
				if err := p.parsePageBody("page", depth+1, false); err != nil {
					return err
				}
			case "place":
				if err := p.parsePlace(t); err != nil {
					return err
				}
			case "transition":
				if err := p.parseTransition(t); err != nil {
					return err
				}
			case "arc":
				if err := p.parseArc(t); err != nil {
					return err
				}
			case "name":
				text, err := p.parseLabelText(t.Name.Local)
				if err != nil {
					return err
				}
				if topLevel {
					p.netName = text
				}
			case "graphics", "toolspecific":
				if err := p.skip(); err != nil {
					return err
				}
			case "referencePlace", "referenceTransition":
				return p.errf("<%s> is not modeled: flatten reference nodes before import", t.Name.Local)
			case "declaration":
				return p.errf("<declaration> is a colored-net construct: only the P/T subset is modeled")
			default:
				return p.errf("unsupported <%s> under <%s>", t.Name.Local, parent)
			}
		case xml.EndElement:
			return nil
		}
	}
}

// declare registers an XML id, rejecting duplicates.
func (p *parser) declare(id string, ref nodeRef) error {
	if prev, ok := p.ids[id]; ok {
		return p.errf("duplicate id %q: already declared as a %s", id, prev.kind)
	}
	p.ids[id] = ref
	return nil
}

// parsePlace handles <place>: an id, an optional name label and an
// optional non-negative integer <initialMarking>.
func (p *parser) parsePlace(se xml.StartElement) error {
	id, ok := attr(se, "id")
	if !ok || id == "" {
		return p.errf("<place> requires an id attribute")
	}
	if err := p.declare(id, nodeRef{kindPlace, len(p.places)}); err != nil {
		return err
	}
	pl := parsedPlace{id: id, name: id}
	for {
		tok, err := p.token()
		if err == io.EOF {
			return p.errf("unexpected end of document inside <place>")
		}
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "name":
				text, err := p.parseLabelText("name")
				if err != nil {
					return err
				}
				if text != "" {
					pl.name = text
				}
			case "initialMarking":
				text, err := p.parseLabelText("initialMarking")
				if err != nil {
					return err
				}
				n, err2 := strconv.Atoi(strings.TrimSpace(text))
				if err2 != nil {
					return p.errf("place %q: initial marking %q is not an integer", id, strings.TrimSpace(text))
				}
				if n < 0 {
					return p.errf("place %q: negative initial marking %d", id, n)
				}
				if n > petri.MaxTokens {
					return p.errf("place %q: initial marking %d above %d", id, n, petri.MaxTokens)
				}
				pl.initial = n
			case "graphics", "toolspecific":
				if err := p.skip(); err != nil {
					return err
				}
			case "hlinitialMarking", "type":
				return p.errf("place %q: <%s> is a colored-net construct: only integer <initialMarking> is modeled", id, t.Name.Local)
			case "capacity":
				return p.errf("place %q: <capacity> is not modeled: express caps with the explorer's token budget instead", id)
			default:
				return p.errf("place %q: unsupported <%s>", id, t.Name.Local)
			}
		case xml.EndElement:
			p.places = append(p.places, pl)
			return nil
		}
	}
}

// parseTransition handles <transition>: an id and an optional name.
func (p *parser) parseTransition(se xml.StartElement) error {
	id, ok := attr(se, "id")
	if !ok || id == "" {
		return p.errf("<transition> requires an id attribute")
	}
	if err := p.declare(id, nodeRef{kindTrans, len(p.trans)}); err != nil {
		return err
	}
	tr := parsedTrans{id: id, name: id}
	for {
		tok, err := p.token()
		if err == io.EOF {
			return p.errf("unexpected end of document inside <transition>")
		}
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "name":
				text, err := p.parseLabelText("name")
				if err != nil {
					return err
				}
				if text != "" {
					tr.name = text
				}
			case "graphics", "toolspecific":
				if err := p.skip(); err != nil {
					return err
				}
			case "condition":
				return p.errf("transition %q: <condition> guards are a colored-net construct", id)
			default:
				return p.errf("transition %q: unsupported <%s>", id, t.Name.Local)
			}
		case xml.EndElement:
			p.trans = append(p.trans, tr)
			return nil
		}
	}
}

// parseArc handles <arc>: source/target ids, an optional positive
// integer <inscription> weight (default 1), and an optional <type>
// label that must be "normal" — inhibitor, reset and read arcs change
// the enabling rule and are rejected.
func (p *parser) parseArc(se xml.StartElement) error {
	id, ok := attr(se, "id")
	if !ok || id == "" {
		return p.errf("<arc> requires an id attribute")
	}
	if err := p.declare(id, nodeRef{kindArc, len(p.arcs)}); err != nil {
		return err
	}
	src, ok := attr(se, "source")
	if !ok || src == "" {
		return p.errf("arc %q: missing source attribute", id)
	}
	dst, ok := attr(se, "target")
	if !ok || dst == "" {
		return p.errf("arc %q: missing target attribute", id)
	}
	line, col := p.dec.InputPos()
	a := parsedArc{source: src, target: dst, weight: 1, line: line, col: col}
	for {
		tok, err := p.token()
		if err == io.EOF {
			return p.errf("unexpected end of document inside <arc>")
		}
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "inscription":
				text, err := p.parseLabelText("inscription")
				if err != nil {
					return err
				}
				w, err2 := strconv.Atoi(strings.TrimSpace(text))
				if err2 != nil {
					return p.errf("arc %q: inscription %q is not an integer weight", id, strings.TrimSpace(text))
				}
				if w < 1 {
					return p.errf("arc %q: non-positive weight %d (ordinary arcs need weight >= 1)", id, w)
				}
				if w > petri.MaxTokens {
					return p.errf("arc %q: weight %d above %d", id, w, petri.MaxTokens)
				}
				a.weight = w
			case "type":
				val, _ := attr(t, "value")
				if err := p.skip(); err != nil {
					return err
				}
				if lv := strings.ToLower(strings.TrimSpace(val)); lv != "" && lv != "normal" {
					return p.errf("arc %q: arc type %q is not modeled (only normal arcs; inhibitor/reset/read change the firing rule)", id, val)
				}
			case "graphics", "toolspecific":
				if err := p.skip(); err != nil {
					return err
				}
			case "hlinscription":
				return p.errf("arc %q: <hlinscription> is a colored-net construct", id)
			default:
				return p.errf("arc %q: unsupported <%s>", id, t.Name.Local)
			}
		case xml.EndElement:
			p.arcs = append(p.arcs, a)
			return nil
		}
	}
}

// parseLabelText consumes a standard PNML annotation element and
// returns its textual value: the concatenated character data of its
// <text> children when present, otherwise the element's own character
// data. Graphics and tool extensions inside the label are skipped.
func (p *parser) parseLabelText(label string) (string, error) {
	var textVal, rawVal strings.Builder
	sawText := false
	for {
		tok, err := p.token()
		if err == io.EOF {
			return "", p.errf("unexpected end of document inside <%s>", label)
		}
		if err != nil {
			return "", err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "text":
				sawText = true
				if err := p.collectText(&textVal); err != nil {
					return "", err
				}
			case "graphics", "toolspecific":
				if err := p.skip(); err != nil {
					return "", err
				}
			default:
				return "", p.errf("unsupported <%s> inside <%s>", t.Name.Local, label)
			}
		case xml.CharData:
			rawVal.Write(t)
		case xml.EndElement:
			if sawText {
				return textVal.String(), nil
			}
			return strings.TrimSpace(rawVal.String()), nil
		}
	}
}

// collectText accumulates the character data of a <text> element.
func (p *parser) collectText(sb *strings.Builder) error {
	for {
		tok, err := p.token()
		if err == io.EOF {
			return p.errf("unexpected end of document inside <text>")
		}
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			return p.errf("unexpected <%s> inside <text>", t.Name.Local)
		case xml.CharData:
			sb.Write(t)
		case xml.EndElement:
			return nil
		}
	}
}

// skip consumes the current element and everything inside it.
func (p *parser) skip() error {
	depth := 1
	for depth > 0 {
		tok, err := p.token()
		if err == io.EOF {
			return p.errf("unexpected end of document")
		}
		if err != nil {
			return err
		}
		switch tok.(type) {
		case xml.StartElement:
			depth++
		case xml.EndElement:
			depth--
		}
	}
	return nil
}

// build assembles the parsed model into a petri.Net: nodes in document
// order, arcs resolved by id with place/transition orientation checked,
// weights accumulated for repeated pairs.
func (p *parser) build() (*petri.Net, error) {
	name := p.netName
	if name == "" {
		name = "pnml"
	}
	n := petri.New(name)
	for _, pl := range p.places {
		n.AddPlace(pl.name, petri.PlaceInternal, pl.initial)
	}
	for _, tr := range p.trans {
		n.AddTransition(tr.name, petri.TransNormal)
	}
	for _, a := range p.arcs {
		src, ok := p.ids[a.source]
		if !ok {
			return nil, &ParseError{Line: a.line, Col: a.col, Msg: fmt.Sprintf("arc references undeclared source %q", a.source)}
		}
		dst, ok := p.ids[a.target]
		if !ok {
			return nil, &ParseError{Line: a.line, Col: a.col, Msg: fmt.Sprintf("arc references undeclared target %q", a.target)}
		}
		var w int
		switch {
		case src.kind == kindPlace && dst.kind == kindTrans:
			n.AddArc(n.Places[src.index], n.Transitions[dst.index], a.weight)
			w = n.Transitions[dst.index].Weight(src.index)
		case src.kind == kindTrans && dst.kind == kindPlace:
			n.AddArcTP(n.Transitions[src.index], n.Places[dst.index], a.weight)
			w = n.Transitions[src.index].OutWeight(dst.index)
		default:
			return nil, &ParseError{Line: a.line, Col: a.col, Msg: fmt.Sprintf("arc connects a %s to a %s: arcs must alternate places and transitions", src.kind, dst.kind)}
		}
		if w > petri.MaxTokens {
			return nil, &ParseError{Line: a.line, Col: a.col, Msg: fmt.Sprintf("arcs from %q to %q: repeated weights sum to %d, above %d", a.source, a.target, w, petri.MaxTokens)}
		}
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("pnml: imported net invalid: %w", err)
	}
	return n, nil
}
