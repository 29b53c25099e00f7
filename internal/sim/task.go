package sim

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/compile"
	"repro/internal/flowc"
	"repro/internal/link"
	"repro/internal/petri"
	"repro/internal/sched"
)

// TaskExec executes a synthesized task: it walks the schedule from await
// node to await node, pasting fragment execution for every fired
// transition. Intra-task channels are local buffers (the schedule
// guarantees they never overflow — the executor asserts it); only
// data-dependent choices are resolved at run time, by evaluating the
// choice conditions on live data, exactly as in the generated C.
type TaskExec struct {
	Sys  *link.System
	Task *codegen.Task
	Cost *CostModel

	Machine *Machine
	Inputs  map[string]*InputStream
	Outputs map[string]*OutputStream
	// Shared holds inter-task channels (keyed by channel name) when
	// several tasks coexist; intra-task channels are internal.
	Shared map[string]*Channel

	// Triggers counts environment triggers served.
	Triggers int64

	scopes map[string]*Scope
	intra  map[int]*Channel // channel place ID -> local buffer
	cur    *sched.Node
	curSeg *codegen.Segment
	segOf  map[int]*codegen.Segment // ECS index -> segment containing it
	// rbuf is the channel-read scratch; see runner.rbuf in baseline.go.
	rbuf []int64
}

// NewTaskExec prepares execution of a generated task within its system.
func NewTaskExec(sys *link.System, task *codegen.Task, cost *CostModel) (*TaskExec, error) {
	te := &TaskExec{
		Sys:     sys,
		Task:    task,
		Cost:    cost,
		Machine: NewMachine(cost),
		Inputs:  map[string]*InputStream{},
		Outputs: map[string]*OutputStream{},
		Shared:  map[string]*Channel{},
		scopes:  map[string]*Scope{},
		intra:   map[int]*Channel{},
		segOf:   map[int]*codegen.Segment{},
	}
	for _, in := range sys.Inputs {
		te.Inputs[in.Spec.Name] = NewInputStream(in.Spec.Name)
	}
	for _, out := range sys.Outputs {
		te.Outputs[out.Spec.Name] = &OutputStream{Name: out.Spec.Name}
	}
	// Per-process scopes with hoisted declarations and startup inits.
	for _, cp := range sys.Procs {
		sc := NewScope()
		for _, v := range cp.InitVars {
			sc.Declare(v.Name, v.ArraySize)
			if v.Init != nil {
				iv, err := te.Machine.Eval(sc, v.Init)
				if err != nil {
					return nil, err
				}
				sc.Cell(v.Name)[0] = iv
			}
		}
		for _, st := range cp.InitStmts {
			if err := te.Machine.ExecPlain(sc, st); err != nil {
				return nil, err
			}
		}
		te.scopes[cp.Proc.Name] = sc
	}
	// Intra-task buffers sized by the schedule's place bounds; the
	// capacity doubles as an assertion of the static bound.
	for pid, sz := range task.IntraChannels(&codegen.SynthOptions{Sys: sys}) {
		te.intra[pid] = NewChannel(task.Net.Places[pid].Name, sz)
	}
	// Map every ECS to its segment for Goto accounting.
	for _, seg := range task.Segments {
		var walk func(n *codegen.SegNode)
		walk = func(n *codegen.SegNode) {
			te.segOf[n.ECS.Index] = seg
			for _, e := range n.Edges {
				if e.Child != nil {
					walk(e.Child)
				}
			}
		}
		walk(seg.Root)
	}
	te.cur = task.Schedule.Root
	te.curSeg = task.Segments[0]
	return te, nil
}

// Input returns the stream of the named environment input.
func (te *TaskExec) Input(name string) *InputStream { return te.Inputs[name] }

// Output returns the stream of the named environment output.
func (te *TaskExec) Output(name string) *OutputStream { return te.Outputs[name] }

// sourceInputName returns the environment input bound to the task's
// uncontrollable source transition.
func (te *TaskExec) sourceInputName() string {
	for _, in := range te.Sys.Inputs {
		if in.Trans.ID == te.Task.Source {
			return in.Spec.Name
		}
	}
	return ""
}

// Trigger serves one environment occurrence of the task's source,
// walking the schedule to the next await node. vals are the data items
// produced by the environment at the triggering port.
func (te *TaskExec) Trigger(vals ...int64) error {
	if name := te.sourceInputName(); name != "" {
		te.Inputs[name].Push(vals...)
	}
	te.Triggers++
	m := te.Machine
	m.Charge(m.Cost.Dispatch)
	s := te.Task.Schedule
	n := te.cur
	if !s.IsAwait(n) {
		return fmt.Errorf("sim: task %s resumed at non-await node %d", te.Task.Name, n.ID)
	}
	// Fire the source edge itself.
	n = n.Edges[0].To
	for !s.IsAwait(n) {
		k, err := te.pickEdge(n)
		if err != nil {
			return err
		}
		e := n.Edges[k]
		if err := te.fire(e.Trans); err != nil {
			return err
		}
		n = e.To
	}
	te.cur = n
	return nil
}

// pickEdge resolves the out-edge to follow at a schedule node.
func (te *TaskExec) pickEdge(n *sched.Node) (int, error) {
	if len(n.Edges) == 1 {
		return 0, nil
	}
	// Data-dependent choice: evaluate the condition of the choice place.
	t0 := te.Task.Net.Transitions[n.Edges[0].Trans]
	for _, a := range t0.In {
		p := te.Task.Net.Places[a.Place]
		ci, ok := p.Cond.(*compile.ChoiceInfo)
		if !ok || ci.Kind != compile.ChoiceData {
			continue
		}
		te.Machine.Charge(te.Machine.Cost.Branch)
		v, err := te.Machine.EvalBool(te.scopes[t0.Process], ci.Cond)
		if err != nil {
			return 0, err
		}
		want := "F"
		if v {
			want = "T"
		}
		for i, e := range n.Edges {
			if te.Task.Net.Transitions[e.Trans].Label == want {
				return i, nil
			}
		}
		return 0, fmt.Errorf("sim: node %d has no %s branch", n.ID, want)
	}
	return 0, fmt.Errorf("sim: node %d: unresolvable %d-way choice", n.ID, len(n.Edges))
}

// fire executes the fragment of one transition, charging jump overhead
// when control crosses into another code segment.
func (te *TaskExec) fire(tid int) error {
	m := te.Machine
	// Inter-segment jump accounting (the goto + state switch of the
	// generated ISR).
	if seg := te.segOf[te.Task.ECSIdx[tid]]; seg != nil && seg != te.curSeg {
		m.Charge(m.Cost.Goto)
		te.curSeg = seg
	}
	t := te.Task.Net.Transitions[tid]
	switch t.Kind {
	case petri.TransSourceUnc, petri.TransSourceCtl, petri.TransSink:
		// Environment transitions move tokens, not data; the data moves
		// in the READ/WRITE fragments.
		return nil
	}
	frag, ok := t.Code.(*compile.Fragment)
	if !ok {
		return nil // hand-built nets carry no code
	}
	sc := te.scopes[frag.Process]
	for _, st := range frag.Stmts {
		switch x := st.(type) {
		case *flowc.Read:
			if err := te.execRead(sc, frag.Process, x); err != nil {
				return err
			}
		case *flowc.Write:
			if err := te.execWrite(sc, frag.Process, x); err != nil {
				return err
			}
		default:
			if err := m.ExecPlain(sc, st); err != nil {
				return err
			}
		}
	}
	return nil
}

func (te *TaskExec) execRead(sc *Scope, proc string, x *flowc.Read) error {
	bd := te.Sys.PortBinding(proc, x.Port)
	if bd == nil {
		return fmt.Errorf("sim: %s.%s unbound", proc, x.Port)
	}
	m := te.Machine
	var vals []int64
	var err error
	switch bd.Kind {
	case link.BindChannel:
		pid := bd.Channel.Place.ID
		if cap(te.rbuf) < x.NItems {
			te.rbuf = make([]int64, x.NItems)
		}
		if ch := te.intra[pid]; ch != nil {
			vals = te.rbuf[:x.NItems]
			err = ch.ReadInto(vals, x.NItems)
			m.Charge(m.Cost.LocalItem * int64(x.NItems))
		} else if ch := te.Shared[bd.Channel.Spec.Name]; ch != nil {
			vals = te.rbuf[:x.NItems]
			err = ch.ReadInto(vals, x.NItems)
			m.Charge(m.Cost.commCall(true) + m.Cost.CommItem*int64(x.NItems))
		} else {
			err = fmt.Errorf("sim: channel %s is neither intra-task nor shared", bd.Channel.Spec.Name)
		}
	case link.BindEnvIn:
		in := te.Inputs[bd.Input.Spec.Name]
		vals, err = in.Pop(x.NItems)
		m.Charge(m.Cost.EnvCall + m.Cost.EnvItem*int64(x.NItems))
	default:
		err = fmt.Errorf("sim: READ_DATA on non-input binding %s.%s", proc, x.Port)
	}
	if err != nil {
		return fmt.Errorf("sim: task %s: %v (schedule bound violated?)", te.Task.Name, err)
	}
	return storeRead(sc, x, vals)
}

func (te *TaskExec) execWrite(sc *Scope, proc string, x *flowc.Write) error {
	bd := te.Sys.PortBinding(proc, x.Port)
	if bd == nil {
		return fmt.Errorf("sim: %s.%s unbound", proc, x.Port)
	}
	m := te.Machine
	vals, err := m.loadWrite(sc, x)
	if err != nil {
		return err
	}
	switch bd.Kind {
	case link.BindChannel:
		pid := bd.Channel.Place.ID
		if ch := te.intra[pid]; ch != nil {
			if err := ch.Write(vals); err != nil {
				return fmt.Errorf("sim: task %s: %v (schedule bound violated?)", te.Task.Name, err)
			}
			m.Charge(m.Cost.LocalItem * int64(len(vals)))
		} else if ch := te.Shared[bd.Channel.Spec.Name]; ch != nil {
			if err := ch.Write(vals); err != nil {
				return err
			}
			m.Charge(m.Cost.commCall(true) + m.Cost.CommItem*int64(len(vals)))
		} else {
			return fmt.Errorf("sim: channel %s is neither intra-task nor shared", bd.Channel.Spec.Name)
		}
	case link.BindEnvOut:
		te.Outputs[bd.Output.Spec.Name].Append(vals...)
		m.Charge(m.Cost.EnvCall + m.Cost.EnvItem*int64(len(vals)))
	default:
		return fmt.Errorf("sim: WRITE_DATA on non-output binding %s.%s", proc, x.Port)
	}
	return nil
}
