package petri

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Textual exchange format for nets, used by the command-line tools and
// the test suite. The format is line oriented:
//
//	net <name>
//	place <name> [init=N] [bound=N] [kind=internal|port|channel|complement] [process=NAME]
//	trans <name> [kind=normal|source-unc|source-ctl|sink] [process=NAME] [label=L]
//	arc <place> -> <trans> [w=N]
//	arc <trans> -> <place> [w=N]
//
// '#' starts a comment; blank lines are ignored.

// Format renders the net in the textual exchange format.
func (n *Net) Format(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "net %s\n", n.Name)
	for _, p := range n.Places {
		fmt.Fprintf(bw, "place %s", p.Name)
		if p.Initial != 0 {
			fmt.Fprintf(bw, " init=%d", p.Initial)
		}
		if p.Bound != 0 {
			fmt.Fprintf(bw, " bound=%d", p.Bound)
		}
		if p.Kind != PlaceInternal {
			fmt.Fprintf(bw, " kind=%s", p.Kind)
		}
		if p.Process != "" {
			fmt.Fprintf(bw, " process=%s", p.Process)
		}
		fmt.Fprintln(bw)
	}
	for _, t := range n.Transitions {
		fmt.Fprintf(bw, "trans %s", t.Name)
		if t.Kind != TransNormal {
			fmt.Fprintf(bw, " kind=%s", t.Kind)
		}
		if t.Process != "" {
			fmt.Fprintf(bw, " process=%s", t.Process)
		}
		if t.Label != "" {
			fmt.Fprintf(bw, " label=%s", t.Label)
		}
		fmt.Fprintln(bw)
	}
	for _, t := range n.Transitions {
		in := append([]Arc(nil), t.In...)
		sort.Slice(in, func(i, j int) bool { return in[i].Place < in[j].Place })
		for _, a := range in {
			fmt.Fprintf(bw, "arc %s -> %s", n.Places[a.Place].Name, t.Name)
			if a.Weight != 1 {
				fmt.Fprintf(bw, " w=%d", a.Weight)
			}
			fmt.Fprintln(bw)
		}
		out := append([]Arc(nil), t.Out...)
		sort.Slice(out, func(i, j int) bool { return out[i].Place < out[j].Place })
		for _, a := range out {
			fmt.Fprintf(bw, "arc %s -> %s", t.Name, n.Places[a.Place].Name)
			if a.Weight != 1 {
				fmt.Fprintf(bw, " w=%d", a.Weight)
			}
			fmt.Fprintln(bw)
		}
	}
	return bw.Flush()
}

// Parse reads a net in the textual exchange format.
func Parse(r io.Reader) (*Net, error) {
	sc := bufio.NewScanner(r)
	n := New("")
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "net":
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: net requires a name", lineno)
			}
			n.Name = fields[1]
		case "place":
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: place requires a name", lineno)
			}
			p := n.AddPlace(fields[1], PlaceInternal, 0)
			for _, kv := range fields[2:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("line %d: malformed attribute %q", lineno, kv)
				}
				switch k {
				case "init":
					iv, err := strconv.Atoi(v)
					if err != nil {
						return nil, fmt.Errorf("line %d: init: %v", lineno, err)
					}
					p.Initial = iv
				case "bound":
					iv, err := strconv.Atoi(v)
					if err != nil {
						return nil, fmt.Errorf("line %d: bound: %v", lineno, err)
					}
					p.Bound = iv
				case "kind":
					pk, err := parsePlaceKind(v)
					if err != nil {
						return nil, fmt.Errorf("line %d: %v", lineno, err)
					}
					p.Kind = pk
				case "process":
					p.Process = v
				default:
					return nil, fmt.Errorf("line %d: unknown place attribute %q", lineno, k)
				}
			}
		case "trans":
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: trans requires a name", lineno)
			}
			t := n.AddTransition(fields[1], TransNormal)
			for _, kv := range fields[2:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("line %d: malformed attribute %q", lineno, kv)
				}
				switch k {
				case "kind":
					tk, err := parseTransKind(v)
					if err != nil {
						return nil, fmt.Errorf("line %d: %v", lineno, err)
					}
					t.Kind = tk
				case "process":
					t.Process = v
				case "label":
					t.Label = v
				default:
					return nil, fmt.Errorf("line %d: unknown trans attribute %q", lineno, k)
				}
			}
		case "arc":
			if len(fields) < 4 || fields[2] != "->" {
				return nil, fmt.Errorf("line %d: arc syntax is 'arc A -> B [w=N]'", lineno)
			}
			w := 1
			for _, kv := range fields[4:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok || k != "w" {
					return nil, fmt.Errorf("line %d: unknown arc attribute %q", lineno, kv)
				}
				iv, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("line %d: w: %v", lineno, err)
				}
				if iv < 1 {
					return nil, fmt.Errorf("line %d: w: non-positive weight %d", lineno, iv)
				}
				w = iv
			}
			from, to := fields[1], fields[3]
			if p := n.PlaceByName(from); p != nil {
				t := n.TransitionByName(to)
				if t == nil {
					return nil, fmt.Errorf("line %d: unknown transition %q", lineno, to)
				}
				n.AddArc(p, t, w)
			} else if t := n.TransitionByName(from); t != nil {
				p := n.PlaceByName(to)
				if p == nil {
					return nil, fmt.Errorf("line %d: unknown place %q", lineno, to)
				}
				n.AddArcTP(t, p, w)
			} else {
				return nil, fmt.Errorf("line %d: unknown arc source %q", lineno, from)
			}
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", lineno, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

func parsePlaceKind(s string) (PlaceKind, error) {
	switch s {
	case "internal":
		return PlaceInternal, nil
	case "port":
		return PlacePort, nil
	case "channel":
		return PlaceChannel, nil
	case "complement":
		return PlaceComplement, nil
	}
	return 0, fmt.Errorf("unknown place kind %q", s)
}

func parseTransKind(s string) (TransKind, error) {
	switch s {
	case "normal":
		return TransNormal, nil
	case "source-unc":
		return TransSourceUnc, nil
	case "source-ctl":
		return TransSourceCtl, nil
	case "sink":
		return TransSink, nil
	}
	return 0, fmt.Errorf("unknown transition kind %q", s)
}

// Dot renders the net in Graphviz DOT format: places as circles (token
// count in the label), transitions as boxes, arc weights on edges.
func (n *Net) Dot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n  rankdir=TB;\n", n.Name)
	for _, p := range n.Places {
		label := p.Name
		if p.Initial > 0 {
			label = fmt.Sprintf("%s\\n%d", p.Name, p.Initial)
		}
		fmt.Fprintf(bw, "  p%d [shape=circle label=\"%s\"];\n", p.ID, label)
	}
	for _, t := range n.Transitions {
		shape := "box"
		if t.IsSource() {
			shape = "cds"
		}
		fmt.Fprintf(bw, "  t%d [shape=%s label=\"%s\"];\n", t.ID, shape, t.Name)
	}
	for _, t := range n.Transitions {
		for _, a := range t.In {
			fmt.Fprintf(bw, "  p%d -> t%d", a.Place, t.ID)
			if a.Weight != 1 {
				fmt.Fprintf(bw, " [label=\"%d\"]", a.Weight)
			}
			fmt.Fprintln(bw, ";")
		}
		for _, a := range t.Out {
			fmt.Fprintf(bw, "  t%d -> p%d", t.ID, a.Place)
			if a.Weight != 1 {
				fmt.Fprintf(bw, " [label=\"%d\"]", a.Weight)
			}
			fmt.Fprintln(bw, ";")
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
