package petri

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// Format renders the net as line-oriented text, for people to read
// (flowcc and examples/divisors print it); nothing parses it back.
// The lines are:
//
//	net <name>
//	place <name> [init=N] [bound=N] [kind=port|channel|complement] [process=NAME]
//	trans <name> [kind=source-unc|source-ctl|sink] [process=NAME] [label=L]
//	arc <place> -> <trans> [w=N]
//	arc <trans> -> <place> [w=N]
//
// Attributes at their default (zero, internal, normal, weight 1) are
// left out.
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
