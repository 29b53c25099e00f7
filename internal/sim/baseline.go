package sim

import (
	"errors"
	"fmt"
	"iter"

	"repro/internal/compile"
	"repro/internal/flowc"
	"repro/internal/link"
)

// Baseline executes the linked system the traditional way (Section 8.2's
// comparison point): every process is a separate task under a simple
// round-robin scheduler, communicating through FIFO channels of
// configurable capacity. A task runs until it blocks on a channel; the
// scheduler then charges a context switch and hands control to the next
// runnable task.
type Baseline struct {
	Sys  *link.System
	Cost *CostModel
	// Inline uses inlined communication primitives (the paper reports
	// ~30% faster, larger code).
	Inline bool
	// CapacityOf overrides, per channel name, the uniform capacity
	// NewBaseline gave every channel (the x axis of Figure 20).
	CapacityOf map[string]int

	Machine  *Machine
	Channels map[string]*Channel
	Inputs   map[string]*InputStream
	Outputs  map[string]*OutputStream

	// Switches counts context switches performed.
	Switches int64
}

// process is one baseline process, run as a coroutine: it executes
// until a port operation would block, then park hands control back to
// Run's round-robin loop.
type process struct {
	b     *Baseline
	cp    *compile.CompiledProcess
	next  func() (struct{}, bool) // resumes the coroutine
	yield func(struct{}) bool     // suspends it
	ready func() bool             // nil when runnable unconditionally
	err   error
	// rbuf is the process's channel-read scratch: READ_DATA copies the
	// received values straight into the destination cell, so the
	// intermediate slice never escapes a step and is reused.
	rbuf []int64
}

// errStopped unwinds a parked process once Run has returned.
var errStopped = errors.New("sim: baseline stopped")

// NewBaseline prepares a baseline execution of the system. Every
// channel gets the given capacity (0 = unbounded), or its declared
// bound where that is smaller.
func NewBaseline(sys *link.System, cost *CostModel, capacity int) *Baseline {
	b := &Baseline{
		Sys:      sys,
		Cost:     cost,
		Machine:  NewMachine(cost),
		Channels: map[string]*Channel{},
		Inputs:   map[string]*InputStream{},
		Outputs:  map[string]*OutputStream{},
	}
	for _, ch := range sys.Channels {
		cap := capacity
		if ch.Spec.Bound > 0 && (cap <= 0 || ch.Spec.Bound < cap) {
			cap = ch.Spec.Bound
		}
		b.Channels[ch.Spec.Name] = NewChannel(ch.Spec.Name, cap)
	}
	for _, in := range sys.Inputs {
		b.Inputs[in.Spec.Name] = NewInputStream(in.Spec.Name)
	}
	for _, out := range sys.Outputs {
		b.Outputs[out.Spec.Name] = &OutputStream{Name: out.Spec.Name}
	}
	return b
}

// Input returns the stream of the named environment input.
func (b *Baseline) Input(name string) *InputStream { return b.Inputs[name] }

// Output returns the stream of the named environment output.
func (b *Baseline) Output(name string) *OutputStream { return b.Outputs[name] }

// Run executes the system until no process can make progress (typically
// because the environment input streams are exhausted), or until one
// fails. It returns the total cycle count. Every process has stopped
// when Run returns; a process that never ran never starts.
func (b *Baseline) Run() (int64, error) {
	for name, cap := range b.CapacityOf {
		if ch := b.Channels[name]; ch != nil {
			ch.Capacity = cap
		}
	}
	procs := make([]*process, len(b.Sys.Procs))
	for i, cp := range b.Sys.Procs {
		p := &process{b: b, cp: cp}
		var stop func()
		p.next, stop = iter.Pull(p.run)
		defer stop()
		procs[i] = p
	}
	// Round-robin: run each runnable process until it blocks.
	last := -1
	for {
		ran := false
		for off := range procs {
			i := (last + 1 + off) % len(procs)
			p := procs[i]
			if p.ready != nil && !p.ready() {
				continue
			}
			p.ready = nil
			if last != i {
				if last >= 0 {
					b.Machine.Charge(b.Cost.CtxSwitch)
					b.Switches++
				}
				last = i
			}
			b.Machine.Steps = 0
			if _, ok := p.next(); !ok {
				// A process returns only when it fails.
				return b.Machine.Cycles, fmt.Errorf("sim: baseline: %v", p.err)
			}
			ran = true
			break
		}
		if !ran {
			return b.Machine.Cycles, nil
		}
	}
}

// run is the process's coroutine: startup once, then the cyclic body
// forever. It returns only on failure, or with errStopped once Run has
// returned; a panic becomes the process's error. Every repetition of
// the body counts a step, so a body that never yields (an empty one
// included) exhausts the statement budget instead of spinning.
func (p *process) run(yield func(struct{}) bool) {
	defer func() {
		if v := recover(); v != nil {
			p.err = fmt.Errorf("sim: process %s panicked: %v", p.cp.Proc.Name, v)
		}
	}()
	p.yield = yield
	m := p.b.Machine
	sc, err := m.startProcess(p.cp)
	for err == nil {
		if err = m.step(); err == nil {
			err = m.execSeq(sc, p.cp.Body, p)
		}
	}
	p.err = err
}

// park suspends the process until ready holds. It returns errStopped
// when Run has returned instead of resuming it.
func (p *process) park(ready func() bool) error {
	p.ready = ready
	if !p.yield(struct{}{}) {
		return errStopped
	}
	return nil
}

// Read performs a blocking READ_DATA.
func (p *process) Read(sc *Scope, x *flowc.Read) error {
	b, m := p.b, p.b.Machine
	bd := b.Sys.PortBinding(p.cp.Proc.Name, x.Port)
	if bd == nil {
		return fmt.Errorf("sim: %s.%s unbound", p.cp.Proc.Name, x.Port)
	}
	var vals []int64
	var err error
	switch bd.Kind {
	case link.BindChannel:
		ch := b.Channels[bd.Channel.Spec.Name]
		if !ch.CanRead(x.NItems) {
			ch.BlockedReads++
			if err := p.park(func() bool { return ch.CanRead(x.NItems) }); err != nil {
				return err
			}
		}
		if cap(p.rbuf) < x.NItems {
			p.rbuf = make([]int64, x.NItems)
		}
		vals = p.rbuf[:x.NItems]
		if err := ch.ReadInto(vals, x.NItems); err != nil {
			return err
		}
	case link.BindEnvIn:
		in := b.Inputs[bd.Input.Spec.Name]
		if in.Len() < x.NItems {
			if err := p.park(func() bool { return in.Len() >= x.NItems }); err != nil {
				return err
			}
		}
		vals, err = in.Pop(x.NItems)
		if err != nil {
			return err
		}
		m.Charge(m.Cost.EnvCall + m.Cost.EnvItem*int64(x.NItems))
		return storeRead(sc, x, vals)
	default:
		return fmt.Errorf("sim: READ_DATA on non-input binding %s.%s", p.cp.Proc.Name, x.Port)
	}
	m.Charge(m.Cost.commCall(b.Inline) + m.Cost.CommItem*int64(x.NItems))
	return storeRead(sc, x, vals)
}

// storeRead writes received values into the destination variable.
func storeRead(sc *Scope, x *flowc.Read, vals []int64) error {
	id, ok := x.Dest.(*flowc.Ident)
	if !ok {
		return fmt.Errorf("sim: READ_DATA destination must be a variable")
	}
	cell := sc.Cell(id.Name)
	if len(cell) < len(vals) {
		return fmt.Errorf("sim: destination %s too small for %d items", id.Name, len(vals))
	}
	copy(cell, vals)
	return nil
}

// loadWrite gathers the values a WRITE_DATA sends, for both executors.
func (m *Machine) loadWrite(sc *Scope, x *flowc.Write) ([]int64, error) {
	if id, ok := x.Src.(*flowc.Ident); ok {
		cell := sc.Cell(id.Name)
		if len(cell) >= x.NItems {
			out := make([]int64, x.NItems)
			copy(out, cell)
			return out, nil
		}
	}
	if x.NItems != 1 {
		return nil, fmt.Errorf("sim: WRITE_DATA of %d items requires an array source", x.NItems)
	}
	v, err := m.Eval(sc, x.Src)
	if err != nil {
		return nil, err
	}
	return []int64{v}, nil
}

// Write performs a blocking WRITE_DATA.
func (p *process) Write(sc *Scope, x *flowc.Write) error {
	b, m := p.b, p.b.Machine
	bd := b.Sys.PortBinding(p.cp.Proc.Name, x.Port)
	if bd == nil {
		return fmt.Errorf("sim: %s.%s unbound", p.cp.Proc.Name, x.Port)
	}
	vals, err := m.loadWrite(sc, x)
	if err != nil {
		return err
	}
	switch bd.Kind {
	case link.BindChannel:
		ch := b.Channels[bd.Channel.Spec.Name]
		if !ch.CanWrite(len(vals)) {
			ch.BlockedWrites++
			if err := p.park(func() bool { return ch.CanWrite(len(vals)) }); err != nil {
				return err
			}
		}
		if err := ch.Write(vals); err != nil {
			return err
		}
	case link.BindEnvOut:
		b.Outputs[bd.Output.Spec.Name].Append(vals...)
		m.Charge(m.Cost.EnvCall + m.Cost.EnvItem*int64(len(vals)))
		return nil
	default:
		return fmt.Errorf("sim: WRITE_DATA on non-output binding %s.%s", p.cp.Proc.Name, x.Port)
	}
	m.Charge(m.Cost.commCall(b.Inline) + m.Cost.CommItem*int64(len(vals)))
	return nil
}

// Select picks the first ready arm in priority order, blocking until
// one is ready.
func (p *process) Select(x *flowc.Select) (int, error) {
	if i := p.readyArm(x); i >= 0 {
		return i, nil
	}
	if err := p.park(func() bool { return p.readyArm(x) >= 0 }); err != nil {
		return 0, err
	}
	if i := p.readyArm(x); i >= 0 {
		return i, nil
	}
	return 0, fmt.Errorf("sim: SELECT woke with no ready arm in %s", p.cp.Proc.Name)
}

// readyArm returns the first SELECT arm that can proceed without
// blocking, or -1.
func (p *process) readyArm(x *flowc.Select) int {
	for i := range x.Arms {
		if p.armReady(&x.Arms[i]) {
			return i
		}
	}
	return -1
}

// armReady reports whether a SELECT arm can proceed without blocking.
func (p *process) armReady(a *flowc.SelectArm) bool {
	b := p.b
	bd := b.Sys.PortBinding(p.cp.Proc.Name, a.Port)
	if bd == nil {
		return false
	}
	switch bd.Kind {
	case link.BindChannel:
		ch := b.Channels[bd.Channel.Spec.Name]
		// Direction decides: readers need items, writers need space.
		if pd := p.cp.Proc.PortByName(a.Port); pd != nil && pd.Dir == flowc.PortOut {
			return ch.CanWrite(a.NItems)
		}
		return ch.CanRead(a.NItems)
	case link.BindEnvIn:
		return b.Inputs[bd.Input.Spec.Name].Len() >= a.NItems
	case link.BindEnvOut:
		return true
	}
	return false
}
