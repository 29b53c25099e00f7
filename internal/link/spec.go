package link

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/petri"
)

// ParseSpec reads a netlist in the textual system format:
//
//	system <name>
//	channel <name> <proc.port> -> <proc.port> [bound=N]
//	input <name> -> <proc.port> [controllable|uncontrollable] [rate=N]
//	output <proc.port> -> <name> [rate=N]
//
// '#' starts a comment. Inputs default to uncontrollable (they trigger
// tasks); rates default to 1. A bound or rate is a token count, at most
// petri.MaxTokens. A line may be up to maxSpecLine bytes long.
func ParseSpec(r io.Reader) (*Spec, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxSpecLine+1) // the line plus its newline
	tooLong := func(lineno int) error {
		return fmt.Errorf("line %d: longer than %d bytes", lineno, maxSpecLine)
	}
	spec := &Spec{}
	lineno := 0
	for sc.Scan() {
		lineno++
		if len(sc.Bytes()) > maxSpecLine {
			return nil, tooLong(lineno)
		}
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "system":
			if len(f) < 2 {
				return nil, fmt.Errorf("line %d: system requires a name", lineno)
			}
			spec.Name = f[1]
		case "channel":
			if len(f) < 5 || f[3] != "->" {
				return nil, fmt.Errorf("line %d: channel syntax: channel NAME FROM -> TO [bound=N]", lineno)
			}
			ch := ChannelSpec{Name: f[1], From: f[2], To: f[4]}
			for _, kv := range f[5:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok || k != "bound" {
					return nil, fmt.Errorf("line %d: unknown channel attribute %q", lineno, kv)
				}
				b, err := strconv.Atoi(v)
				if err != nil || b < 0 || b > petri.MaxTokens {
					return nil, fmt.Errorf("line %d: bad bound %q", lineno, v)
				}
				ch.Bound = b
			}
			spec.Channels = append(spec.Channels, ch)
		case "input":
			if len(f) < 4 || f[2] != "->" {
				return nil, fmt.Errorf("line %d: input syntax: input NAME -> PROC.PORT [controllable|uncontrollable] [rate=N]", lineno)
			}
			in := InputSpec{Name: f[1], To: f[3], Rate: 1}
			for _, attr := range f[4:] {
				switch {
				case attr == "controllable":
					in.Controllable = true
				case attr == "uncontrollable":
					in.Controllable = false
				case strings.HasPrefix(attr, "rate="):
					rv, err := strconv.Atoi(strings.TrimPrefix(attr, "rate="))
					if err != nil || rv <= 0 || rv > petri.MaxTokens {
						return nil, fmt.Errorf("line %d: bad rate %q", lineno, attr)
					}
					in.Rate = rv
				default:
					return nil, fmt.Errorf("line %d: unknown input attribute %q", lineno, attr)
				}
			}
			spec.Inputs = append(spec.Inputs, in)
		case "output":
			if len(f) < 4 || f[2] != "->" {
				return nil, fmt.Errorf("line %d: output syntax: output PROC.PORT -> NAME [rate=N]", lineno)
			}
			out := OutputSpec{From: f[1], Name: f[3], Rate: 1}
			for _, attr := range f[4:] {
				if strings.HasPrefix(attr, "rate=") {
					rv, err := strconv.Atoi(strings.TrimPrefix(attr, "rate="))
					if err != nil || rv <= 0 || rv > petri.MaxTokens {
						return nil, fmt.Errorf("line %d: bad rate %q", lineno, attr)
					}
					out.Rate = rv
					continue
				}
				return nil, fmt.Errorf("line %d: unknown output attribute %q", lineno, attr)
			}
			spec.Outputs = append(spec.Outputs, out)
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", lineno, f[0])
		}
	}
	if err := sc.Err(); err == bufio.ErrTooLong {
		return nil, tooLong(lineno + 1)
	} else if err != nil {
		return nil, err
	}
	if spec.Name == "" {
		return nil, fmt.Errorf("link: spec is missing a 'system' line")
	}
	return spec, nil
}

// maxSpecLine bounds one netlist line: the resident server's 8 MiB
// request-body cap, so no netlist it accepts is refused here.
const maxSpecLine = 8 << 20

// FormatSpec renders the spec back in the textual system format,
// omitting default attributes (bound 0, uncontrollable, rate 1). A
// rendered line is then never longer than the line it was parsed from,
// so ParseSpec reads back everything it accepted.
func FormatSpec(spec *Spec, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "system %s\n", spec.Name)
	for _, ch := range spec.Channels {
		fmt.Fprintf(bw, "channel %s %s -> %s", ch.Name, ch.From, ch.To)
		if ch.Bound > 0 {
			fmt.Fprintf(bw, " bound=%d", ch.Bound)
		}
		fmt.Fprintln(bw)
	}
	for _, in := range spec.Inputs {
		fmt.Fprintf(bw, "input %s -> %s", in.Name, in.To)
		if in.Controllable {
			fmt.Fprint(bw, " controllable")
		}
		if in.Rate > 1 {
			fmt.Fprintf(bw, " rate=%d", in.Rate)
		}
		fmt.Fprintln(bw)
	}
	for _, out := range spec.Outputs {
		fmt.Fprintf(bw, "output %s -> %s", out.From, out.Name)
		if out.Rate > 1 {
			fmt.Fprintf(bw, " rate=%d", out.Rate)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
