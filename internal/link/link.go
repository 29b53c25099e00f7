// Package link combines the Petri nets of compiled FlowC processes into
// one system net (Section 3.2 of the paper): port places connected by a
// channel are merged, environment ports get source/sink transitions, and
// bounded channels receive complement places so that blocking writes and
// SELECT space tests become ordinary enabling conditions.
package link

import (
	"fmt"
	"strings"

	"repro/internal/compile"
	"repro/internal/flowc"
	"repro/internal/petri"
)

// ChannelSpec declares a point-to-point channel between an output port
// and an input port, each written "process.port".
type ChannelSpec struct {
	Name  string
	From  string // producer "proc.port" (an Out port)
	To    string // consumer "proc.port" (an In port)
	Bound int    // 0 = unbounded
}

// InputSpec declares an environment input connected to a process In port.
type InputSpec struct {
	Name         string
	To           string // "proc.port"
	Controllable bool
	Rate         int // tokens produced per firing (default 1)
}

// OutputSpec declares an environment output fed by a process Out port.
type OutputSpec struct {
	Name string
	From string // "proc.port"
	Rate int    // tokens consumed per firing (default 1)
}

// Spec is the netlist of a system.
type Spec struct {
	Name     string
	Channels []ChannelSpec
	Inputs   []InputSpec
	Outputs  []OutputSpec
}

// ChannelInfo is a linked channel.
type ChannelInfo struct {
	Spec  ChannelSpec
	Place *petri.Place
	Comp  *petri.Place // complement place; nil for unbounded channels
}

// InputInfo is a linked environment input.
type InputInfo struct {
	Spec  InputSpec
	Trans *petri.Transition
	Place *petri.Place
}

// OutputInfo is a linked environment output.
type OutputInfo struct {
	Spec  OutputSpec
	Trans *petri.Transition
	Place *petri.Place
}

// BindingKind says what a process port is connected to after linking.
type BindingKind int

const (
	// BindChannel connects to an inter-process channel.
	BindChannel BindingKind = iota
	// BindEnvIn connects to an environment input.
	BindEnvIn
	// BindEnvOut connects to an environment output.
	BindEnvOut
)

// Binding resolves one process port.
type Binding struct {
	Kind    BindingKind
	Channel *ChannelInfo
	Input   *InputInfo
	Output  *OutputInfo
}

// System is the linked design: one Petri net plus symbol tables.
type System struct {
	Name     string
	Net      *petri.Net
	Procs    []*compile.CompiledProcess
	Channels []*ChannelInfo
	Inputs   []*InputInfo
	Outputs  []*OutputInfo

	bindings map[string]*Binding // "proc.port" -> binding
}

// PortBinding resolves the connection of the given process port, or nil.
func (s *System) PortBinding(proc, port string) *Binding {
	return s.bindings[proc+"."+port]
}

func splitRef(ref string) (proc, port string, err error) {
	proc, port, ok := strings.Cut(ref, ".")
	if !ok || proc == "" || port == "" {
		return "", "", fmt.Errorf("link: malformed port reference %q (want proc.port)", ref)
	}
	return proc, port, nil
}

// Link merges the compiled processes according to the spec. Every process
// port must end up connected exactly once: by a channel, an input or an
// output declaration.
func Link(procs []*compile.CompiledProcess, spec *Spec) (*System, error) {
	sys := &System{
		Name:     spec.Name,
		Net:      petri.New(spec.Name),
		Procs:    procs,
		bindings: map[string]*Binding{},
	}
	n := sys.Net

	procByName := map[string]*compile.CompiledProcess{}
	for _, cp := range procs {
		if procByName[cp.Proc.Name] != nil {
			return nil, fmt.Errorf("link: duplicate process %s", cp.Proc.Name)
		}
		procByName[cp.Proc.Name] = cp
	}

	// Copy places and transitions of each process net into the system
	// net, keeping per-process ID remap tables.
	placeMap := map[string][]int{} // proc name -> local place ID -> global ID
	transMap := map[string][]int{}
	for _, cp := range procs {
		pm := make([]int, len(cp.Net.Places))
		for i, p := range cp.Net.Places {
			np := n.AddPlace(p.Name, p.Kind, p.Initial)
			np.Bound = p.Bound
			np.Process = p.Process
			np.Cond = p.Cond
			pm[i] = np.ID
		}
		placeMap[cp.Proc.Name] = pm
		tm := make([]int, len(cp.Net.Transitions))
		for i, t := range cp.Net.Transitions {
			nt := n.AddTransition(t.Name, t.Kind)
			nt.Process = t.Process
			nt.Label = t.Label
			nt.Code = t.Code
			for _, a := range t.In {
				n.AddArc(n.Places[pm[a.Place]], nt, a.Weight)
			}
			for _, a := range t.Out {
				n.AddArcTP(nt, n.Places[pm[a.Place]], a.Weight)
			}
			tm[i] = nt.ID
		}
		transMap[cp.Proc.Name] = tm
	}

	globalPort := func(ref string, wantDir flowc.PortDir) (*petri.Place, *compile.CompiledProcess, error) {
		proc, port, err := splitRef(ref)
		if err != nil {
			return nil, nil, err
		}
		cp := procByName[proc]
		if cp == nil {
			return nil, nil, fmt.Errorf("link: unknown process %q in %q", proc, ref)
		}
		pd := cp.Proc.PortByName(port)
		if pd == nil {
			return nil, nil, fmt.Errorf("link: process %s has no port %q", proc, port)
		}
		if pd.Dir != wantDir {
			return nil, nil, fmt.Errorf("link: port %s is %v, expected %v", ref, pd.Dir, wantDir)
		}
		local := cp.PortPlace[port]
		return n.Places[placeMap[proc][local.ID]], cp, nil
	}

	bound := map[string]bool{} // "proc.port" already connected

	claim := func(ref string) error {
		if bound[ref] {
			return fmt.Errorf("link: port %s connected more than once", ref)
		}
		bound[ref] = true
		return nil
	}

	// redirect moves every arc touching place from onto place to.
	redirect := func(from, to *petri.Place) {
		for _, t := range n.Transitions {
			for i := range t.In {
				if t.In[i].Place == from.ID {
					t.In[i].Place = to.ID
				}
			}
			for i := range t.Out {
				if t.Out[i].Place == from.ID {
					t.Out[i].Place = to.ID
				}
			}
		}
	}

	// Channels: merge the two port places into one channel place.
	usedNames := map[string]bool{}
	for i := range spec.Channels {
		ch := spec.Channels[i]
		if ch.Name == "" {
			ch.Name = fmt.Sprintf("ch%d", i)
		}
		if usedNames[ch.Name] {
			return nil, fmt.Errorf("link: duplicate channel name %q", ch.Name)
		}
		usedNames[ch.Name] = true
		if err := claim(ch.From); err != nil {
			return nil, err
		}
		if err := claim(ch.To); err != nil {
			return nil, err
		}
		fromPl, fromCP, err := globalPort(ch.From, flowc.PortOut)
		if err != nil {
			return nil, err
		}
		toPl, toCP, err := globalPort(ch.To, flowc.PortIn)
		if err != nil {
			return nil, err
		}
		// Merge: keep fromPl as the channel place, retarget toPl users.
		redirect(toPl, fromPl)
		fromPl.Name = ch.Name
		fromPl.Kind = petri.PlaceChannel
		fromPl.Process = ""
		fromPl.Bound = ch.Bound
		// toPl remains as an orphan; mark it clearly.
		toPl.Name = ch.Name + "~merged"
		toPl.Kind = petri.PlaceChannel
		toPl.Process = ""

		info := &ChannelInfo{Spec: ch, Place: fromPl}
		if ch.Bound > 0 {
			comp := n.AddPlace(ch.Name+"~space", petri.PlaceComplement, ch.Bound)
			info.Comp = comp
			// Writers consume space; readers release it. Pure
			// self-loops (SELECT availability tests) touch neither.
			for _, t := range n.Transitions {
				w := t.OutWeight(fromPl.ID)
				if w > 0 && t.Weight(fromPl.ID) != w {
					if w > ch.Bound {
						return nil, fmt.Errorf("link: channel %s bound %d smaller than write burst %d by %s",
							ch.Name, ch.Bound, w, t.Name)
					}
					n.AddArc(comp, t, w)
				}
			}
			for _, t := range n.Transitions {
				w := t.Weight(fromPl.ID)
				if w > 0 && t.OutWeight(fromPl.ID) != w {
					n.AddArcTP(t, comp, w)
				}
			}
		}
		sys.Channels = append(sys.Channels, info)
		b := &Binding{Kind: BindChannel, Channel: info}
		sys.bindings[ch.From] = b
		sys.bindings[ch.To] = b
		_ = fromCP
		_ = toCP
	}

	// SELECT arms on Out ports: availability means free space, i.e. a
	// self-loop on the complement place.
	for _, cp := range procs {
		for _, ref := range cp.SelectArms {
			pd := cp.Proc.PortByName(ref.Port)
			if pd == nil || pd.Dir != flowc.PortOut {
				continue
			}
			b := sys.bindings[cp.Proc.Name+"."+ref.Port]
			gt := n.Transitions[transMap[cp.Proc.Name][ref.Trans]]
			if b != nil && b.Kind == BindChannel && b.Channel.Comp != nil {
				n.AddSelfLoop(b.Channel.Comp, gt, ref.NItems)
			}
			// Unbounded channels and environment outputs always have
			// space: the arm is unconditionally enabled.
		}
	}

	// Environment inputs.
	for i := range spec.Inputs {
		in := spec.Inputs[i]
		if in.Rate == 0 {
			in.Rate = 1
		}
		if in.Name == "" {
			in.Name = "in_" + strings.ReplaceAll(in.To, ".", "_")
		}
		if err := claim(in.To); err != nil {
			return nil, err
		}
		pl, _, err := globalPort(in.To, flowc.PortIn)
		if err != nil {
			return nil, err
		}
		kind := petri.TransSourceUnc
		if in.Controllable {
			kind = petri.TransSourceCtl
		}
		t := n.AddTransition(in.Name, kind)
		n.AddArcTP(t, pl, in.Rate)
		info := &InputInfo{Spec: in, Trans: t, Place: pl}
		sys.Inputs = append(sys.Inputs, info)
		sys.bindings[in.To] = &Binding{Kind: BindEnvIn, Input: info}
	}

	// Environment outputs.
	for i := range spec.Outputs {
		out := spec.Outputs[i]
		if out.Rate == 0 {
			out.Rate = 1
		}
		if out.Name == "" {
			out.Name = "out_" + strings.ReplaceAll(out.From, ".", "_")
		}
		if err := claim(out.From); err != nil {
			return nil, err
		}
		pl, _, err := globalPort(out.From, flowc.PortOut)
		if err != nil {
			return nil, err
		}
		t := n.AddTransition(out.Name, petri.TransSink)
		n.AddArc(pl, t, out.Rate)
		info := &OutputInfo{Spec: out, Trans: t, Place: pl}
		sys.Outputs = append(sys.Outputs, info)
		sys.bindings[out.From] = &Binding{Kind: BindEnvOut, Output: info}
	}

	// Every port must be connected.
	for _, cp := range procs {
		for _, pd := range cp.Proc.Ports {
			ref := cp.Proc.Name + "." + pd.Name
			if !bound[ref] {
				return nil, fmt.Errorf("link: port %s is not connected; declare a channel, input or output for it", ref)
			}
		}
	}

	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("link: internal error: %v", err)
	}
	return sys, nil
}
