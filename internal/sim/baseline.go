package sim

import (
	"fmt"

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
	// Capacity is the uniform channel capacity (the x axis of Figure
	// 20); individual channels can be overridden via CapacityOf.
	Capacity int
	// CapacityOf overrides capacities per channel name.
	CapacityOf map[string]int

	Machine  *Machine
	Channels map[string]*Channel
	Inputs   map[string]*InputStream
	Outputs  map[string]*OutputStream

	// Switches counts context switches performed.
	Switches int64

	runners []*runner
}

type blockCond func() bool

type runner struct {
	name   string
	scope  *Scope
	resume chan struct{}
	yield  chan struct{}
	cond   blockCond // nil when runnable unconditionally
	dead   bool      // permanently blocked (input exhausted) or crashed
	err    error
	// rbuf is the runner's channel-read scratch: READ_DATA copies the
	// received values straight into the destination cell, so the
	// intermediate slice never escapes a step and is reused.
	rbuf []int64
}

type quitPanic struct{}

// NewBaseline prepares a baseline execution of the system.
func NewBaseline(sys *link.System, cost *CostModel, capacity int) *Baseline {
	b := &Baseline{
		Sys:      sys,
		Cost:     cost,
		Capacity: capacity,
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
// because the environment input streams are exhausted). It returns the
// total cycle count.
func (b *Baseline) Run() (int64, error) {
	if b.CapacityOf != nil {
		for name, cap := range b.CapacityOf {
			if ch := b.Channels[name]; ch != nil {
				ch.Capacity = cap
			}
		}
	}
	for _, cp := range b.Sys.Procs {
		r := &runner{
			name:   cp.Proc.Name,
			scope:  NewScope(),
			resume: make(chan struct{}),
			yield:  make(chan struct{}),
		}
		// Hoisted declarations; startup initializers run once.
		for _, v := range cp.InitVars {
			r.scope.Declare(v.Name, v.ArraySize)
		}
		b.runners = append(b.runners, r)
	}
	for i, cp := range b.Sys.Procs {
		r := b.runners[i]
		proc := cp.Proc
		go func() {
			defer func() {
				if p := recover(); p != nil {
					if _, ok := p.(quitPanic); !ok {
						r.err = fmt.Errorf("sim: process %s panicked: %v", r.name, p)
					}
				}
				r.dead = true
				r.yield <- struct{}{}
			}()
			<-r.resume
			// Startup initializers.
			cpi := b.Sys.ProcByName(r.name)
			for _, v := range cpi.InitVars {
				if v.Init != nil {
					iv, err := b.Machine.Eval(r.scope, v.Init)
					if err != nil {
						r.err = err
						panic(quitPanic{})
					}
					r.scope.Cell(v.Name)[0] = iv
				}
			}
			for _, st := range cpi.InitStmts {
				if err := b.Machine.ExecPlain(r.scope, st); err != nil {
					r.err = err
					panic(quitPanic{})
				}
			}
			// Cyclic process semantics: the body repeats forever.
			for {
				for _, s := range bodyAfterInit(proc) {
					if err := b.exec(r, s); err != nil {
						r.err = err
						panic(quitPanic{})
					}
				}
			}
		}()
	}
	// Round-robin: run each runnable process until it blocks.
	last := -1
	for {
		ran := false
		for off := 0; off < len(b.runners); off++ {
			i := (last + 1 + off) % len(b.runners)
			r := b.runners[i]
			if r.dead {
				continue
			}
			if r.cond != nil && !r.cond() {
				continue
			}
			r.cond = nil
			if last != i {
				if last >= 0 {
					b.Machine.Charge(b.Cost.CtxSwitch)
					b.Switches++
				}
				last = i
			}
			r.resume <- struct{}{}
			<-r.yield
			ran = true
			if r.err != nil {
				b.stopAll()
				return b.Machine.Cycles, fmt.Errorf("sim: baseline: %v", r.err)
			}
			break
		}
		if !ran {
			break
		}
	}
	b.stopAll()
	return b.Machine.Cycles, nil
}

func (b *Baseline) stopAll() {
	for _, r := range b.runners {
		if r.dead {
			continue
		}
		r.dead = true
		// Wake the goroutine so it can unwind via quitPanic.
		go func(rr *runner) {
			defer func() { recover() }()
			close(rr.resume)
		}(r)
	}
}

// bodyAfterInit returns the process body minus the top-level
// initialization prefix (declarations and port-free statements, handled
// at startup).
func bodyAfterInit(p *flowc.Process) []flowc.Stmt {
	stmts := p.Body.Stmts
	for len(stmts) > 0 {
		if _, ok := stmts[0].(*flowc.DeclStmt); ok {
			stmts = stmts[1:]
			continue
		}
		if !compile.ContainsPortOp(stmts[0]) {
			stmts = stmts[1:]
			continue
		}
		break
	}
	return stmts
}

// park blocks the runner until cond holds; panics with quitPanic when the
// simulation is being torn down.
func (b *Baseline) park(r *runner, cond blockCond) {
	r.cond = cond
	r.yield <- struct{}{}
	if _, ok := <-r.resume; !ok {
		panic(quitPanic{})
	}
}

// exec interprets one statement with full port semantics.
func (b *Baseline) exec(r *runner, s flowc.Stmt) error {
	m := b.Machine
	switch x := s.(type) {
	case nil:
		return nil
	case *flowc.Read:
		return b.execRead(r, x)
	case *flowc.Write:
		return b.execWrite(r, x)
	case *flowc.Select:
		return b.execSelect(r, x)
	case *flowc.Block:
		for _, st := range x.Stmts {
			if err := b.exec(r, st); err != nil {
				return err
			}
		}
		return nil
	case *flowc.If:
		m.Charge(m.Cost.Branch)
		c, err := m.EvalBool(r.scope, x.Cond)
		if err != nil {
			return err
		}
		if c {
			return b.exec(r, x.Then)
		}
		return b.exec(r, x.Else)
	case *flowc.While:
		for {
			m.Charge(m.Cost.Branch)
			c, err := m.EvalBool(r.scope, x.Cond)
			if err != nil {
				return err
			}
			if !c {
				return nil
			}
			if err := b.exec(r, x.Body); err != nil {
				return err
			}
		}
	case *flowc.For:
		if x.Init != nil {
			if err := b.exec(r, x.Init); err != nil {
				return err
			}
		}
		for {
			if x.Cond != nil {
				m.Charge(m.Cost.Branch)
				c, err := m.EvalBool(r.scope, x.Cond)
				if err != nil {
					return err
				}
				if !c {
					return nil
				}
			}
			if err := b.exec(r, x.Body); err != nil {
				return err
			}
			if x.Post != nil {
				if _, err := m.Eval(r.scope, x.Post); err != nil {
					return err
				}
			}
		}
	default:
		// Plain statements (declarations, expressions) share the
		// machine's executor.
		return m.ExecPlain(r.scope, s)
	}
}

func (b *Baseline) binding(proc, port string) *link.Binding {
	return b.Sys.PortBinding(proc, port)
}

func (b *Baseline) execRead(r *runner, x *flowc.Read) error {
	bd := b.binding(r.name, x.Port)
	if bd == nil {
		return fmt.Errorf("sim: %s.%s unbound", r.name, x.Port)
	}
	m := b.Machine
	var vals []int64
	switch bd.Kind {
	case link.BindChannel:
		ch := b.Channels[bd.Channel.Spec.Name]
		if !ch.CanRead(x.NItems) {
			ch.BlockedReads++
			b.park(r, func() bool { return ch.CanRead(x.NItems) })
		}
		if cap(r.rbuf) < x.NItems {
			r.rbuf = make([]int64, x.NItems)
		}
		vals = r.rbuf[:x.NItems]
		if err := ch.ReadInto(vals, x.NItems); err != nil {
			return err
		}
	case link.BindEnvIn:
		in := b.Inputs[bd.Input.Spec.Name]
		if in.Len() < x.NItems {
			b.park(r, func() bool { return in.Len() >= x.NItems })
		}
		var err error
		vals, err = in.Pop(x.NItems)
		if err != nil {
			return err
		}
		m.Charge(m.Cost.EnvCall + m.Cost.EnvItem*int64(x.NItems))
		return storeRead(r.scope, x, vals)
	default:
		return fmt.Errorf("sim: READ_DATA on non-input binding %s.%s", r.name, x.Port)
	}
	m.Charge(m.Cost.commCall(b.Inline) + m.Cost.CommItem*int64(x.NItems))
	return storeRead(r.scope, x, vals)
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

func (b *Baseline) execWrite(r *runner, x *flowc.Write) error {
	bd := b.binding(r.name, x.Port)
	if bd == nil {
		return fmt.Errorf("sim: %s.%s unbound", r.name, x.Port)
	}
	m := b.Machine
	vals, err := m.loadWrite(r.scope, x)
	if err != nil {
		return err
	}
	switch bd.Kind {
	case link.BindChannel:
		ch := b.Channels[bd.Channel.Spec.Name]
		if !ch.CanWrite(len(vals)) {
			ch.BlockedWrites++
			b.park(r, func() bool { return ch.CanWrite(len(vals)) })
		}
		if err := ch.Write(vals); err != nil {
			return err
		}
	case link.BindEnvOut:
		b.Outputs[bd.Output.Spec.Name].Append(vals...)
		m.Charge(m.Cost.EnvCall + m.Cost.EnvItem*int64(len(vals)))
		return nil
	default:
		return fmt.Errorf("sim: WRITE_DATA on non-output binding %s.%s", r.name, x.Port)
	}
	m.Charge(m.Cost.commCall(b.Inline) + m.Cost.CommItem*int64(len(vals)))
	return nil
}

// armReady reports whether a SELECT arm can proceed without blocking.
func (b *Baseline) armReady(proc string, a *flowc.SelectArm) bool {
	bd := b.binding(proc, a.Port)
	if bd == nil {
		return false
	}
	switch bd.Kind {
	case link.BindChannel:
		ch := b.Channels[bd.Channel.Spec.Name]
		// Direction decides: readers need items, writers need space.
		if pd := b.Sys.ProcByName(proc).Proc.PortByName(a.Port); pd != nil && pd.Dir == flowc.PortOut {
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

func (b *Baseline) execSelect(r *runner, x *flowc.Select) error {
	b.Machine.Charge(b.Machine.Cost.Branch)
	pick := -1
	for i := range x.Arms {
		if b.armReady(r.name, &x.Arms[i]) {
			pick = i
			break
		}
	}
	if pick < 0 {
		b.park(r, func() bool {
			for i := range x.Arms {
				if b.armReady(r.name, &x.Arms[i]) {
					return true
				}
			}
			return false
		})
		for i := range x.Arms {
			if b.armReady(r.name, &x.Arms[i]) {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		return fmt.Errorf("sim: SELECT woke with no ready arm in %s", r.name)
	}
	for _, st := range x.Arms[pick].Body {
		if err := b.exec(r, st); err != nil {
			return err
		}
	}
	return nil
}
