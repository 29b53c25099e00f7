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

	// Triggers counts environment triggers served.
	Triggers int64

	procs  map[string]*taskProc
	intra  map[int]*Channel // channel place ID -> local buffer
	cur    *sched.Node
	curSeg *codegen.Segment
	segOf  map[int]*codegen.Segment // ECS index -> segment containing it
	// rbuf is the channel-read scratch; see process.rbuf in baseline.go.
	rbuf []int64
}

// taskProc is one process inside the task: its variables, and the Port
// through which its fragments' port operations reach the task's local
// buffers and the environment.
type taskProc struct {
	te    *TaskExec
	name  string
	scope *Scope
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
		procs:   map[string]*taskProc{},
		intra:   map[int]*Channel{},
		segOf:   map[int]*codegen.Segment{},
	}
	for _, in := range sys.Inputs {
		te.Inputs[in.Spec.Name] = NewInputStream(in.Spec.Name)
	}
	for _, out := range sys.Outputs {
		te.Outputs[out.Spec.Name] = &OutputStream{Name: out.Spec.Name}
	}
	for _, cp := range sys.Procs {
		sc, err := te.Machine.startProcess(cp)
		if err != nil {
			return nil, err
		}
		te.procs[cp.Proc.Name] = &taskProc{te: te, name: cp.Proc.Name, scope: sc}
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
	m.Steps = 0
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
		v, err := te.Machine.EvalBool(te.procs[t0.Process].scope, ci.Cond)
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
	p := te.procs[frag.Process]
	return m.execSeq(p.scope, frag.Stmts, p)
}

// Read performs a READ_DATA from a local buffer or the environment.
func (p *taskProc) Read(sc *Scope, x *flowc.Read) error {
	te := p.te
	bd := te.Sys.PortBinding(p.name, x.Port)
	if bd == nil {
		return fmt.Errorf("sim: %s.%s unbound", p.name, x.Port)
	}
	m := te.Machine
	var vals []int64
	var err error
	switch bd.Kind {
	case link.BindChannel:
		if ch := te.intra[bd.Channel.Place.ID]; ch != nil {
			if cap(te.rbuf) < x.NItems {
				te.rbuf = make([]int64, x.NItems)
			}
			vals = te.rbuf[:x.NItems]
			err = ch.ReadInto(vals, x.NItems)
			m.Charge(m.Cost.LocalItem * int64(x.NItems))
		} else {
			err = fmt.Errorf("sim: channel %s is not local to the task", bd.Channel.Spec.Name)
		}
	case link.BindEnvIn:
		in := te.Inputs[bd.Input.Spec.Name]
		vals, err = in.Pop(x.NItems)
		m.Charge(m.Cost.EnvCall + m.Cost.EnvItem*int64(x.NItems))
	default:
		err = fmt.Errorf("sim: READ_DATA on non-input binding %s.%s", p.name, x.Port)
	}
	if err != nil {
		return fmt.Errorf("sim: task %s: %v (schedule bound violated?)", te.Task.Name, err)
	}
	return storeRead(sc, x, vals)
}

// Write performs a WRITE_DATA to a local buffer or the environment.
func (p *taskProc) Write(sc *Scope, x *flowc.Write) error {
	te := p.te
	bd := te.Sys.PortBinding(p.name, x.Port)
	if bd == nil {
		return fmt.Errorf("sim: %s.%s unbound", p.name, x.Port)
	}
	m := te.Machine
	vals, err := m.loadWrite(sc, x)
	if err != nil {
		return err
	}
	switch bd.Kind {
	case link.BindChannel:
		ch := te.intra[bd.Channel.Place.ID]
		if ch == nil {
			return fmt.Errorf("sim: channel %s is not local to the task", bd.Channel.Spec.Name)
		}
		if err := ch.Write(vals); err != nil {
			return fmt.Errorf("sim: task %s: %v (schedule bound violated?)", te.Task.Name, err)
		}
		m.Charge(m.Cost.LocalItem * int64(len(vals)))
	case link.BindEnvOut:
		te.Outputs[bd.Output.Spec.Name].Append(vals...)
		m.Charge(m.Cost.EnvCall + m.Cost.EnvItem*int64(len(vals)))
	default:
		return fmt.Errorf("sim: WRITE_DATA on non-output binding %s.%s", p.name, x.Port)
	}
	return nil
}

// Select fails: the compiler turns a SELECT into net structure, so no
// fragment of a compiled process holds one.
func (p *taskProc) Select(*flowc.Select) (int, error) {
	return 0, fmt.Errorf("sim: task %s: SELECT inside a fragment of %s", p.te.Task.Name, p.name)
}
