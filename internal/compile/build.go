package compile

import (
	"fmt"

	"repro/internal/flowc"
	"repro/internal/petri"
)

// CompiledProcess is the Petri net of one process together with the
// symbol information needed by linking, scheduling, code generation and
// simulation.
type CompiledProcess struct {
	Proc *flowc.Process
	Net  *petri.Net
	// PortPlace maps port names to their (still dangling) places.
	PortPlace map[string]*petri.Place
	// InitVars are the hoisted variable declarations; initializers of
	// the top-level declaration prefix run once at startup and are not
	// part of the cyclic schedule (footnote 1 of the paper).
	InitVars []flowc.VarDecl
	// InitStmts are the port-free statements preceding the first port
	// operation of the body: startup code executed once, outside the
	// cyclic schedule (e.g. "c = 1;" before the main loop).
	InitStmts []flowc.Stmt
	// Body is the cyclic behaviour: the statements after the
	// initialization prefix, which the net encodes and the process
	// repeats forever.
	Body []flowc.Stmt
	// Arrays maps array variable names to their sizes.
	Arrays map[string]int
	// SelectArms lists SELECT arm entry transitions; arms on Out ports
	// need link-time fixup against the channel's complement place.
	SelectArms []SelectArmRef
}

// CompileProcess translates one checked process into a Petri net. The net
// has one internal (program-counter) place marked initially; ignoring
// port places it is a state machine; with port places it is unique choice
// (for SELECT-free processes).
func CompileProcess(p *flowc.Process) (*CompiledProcess, error) {
	if err := flowc.Check(p); err != nil {
		return nil, err
	}
	cp := &CompiledProcess{
		Proc:      p,
		Net:       petri.New(p.Name),
		PortPlace: map[string]*petri.Place{},
		Arrays:    map[string]int{},
	}
	b := &builder{cp: cp}
	for _, pd := range p.Ports {
		pl := cp.Net.AddPlace(p.Name+"."+pd.Name, petri.PlacePort, 0)
		pl.Process = p.Name
		cp.PortPlace[pd.Name] = pl
	}
	p0 := b.newPlace()
	p0.Initial = 1
	b.cur = p0

	var prefix []flowc.Stmt
	prefix, cp.Body = initPrefix(p.Body.Stmts)
	for _, s := range prefix {
		ds, ok := s.(*flowc.DeclStmt)
		if !ok {
			cp.InitStmts = append(cp.InitStmts, s)
			continue
		}
		for _, v := range ds.Vars {
			cp.InitVars = append(cp.InitVars, v)
			if v.ArraySize > 0 {
				cp.Arrays[v.Name] = v.ArraySize
			}
		}
	}

	b.compileSeq(cp.Body)
	if b.err != nil {
		return nil, b.err
	}
	// The process is cyclic: execution wraps back to the initial place.
	b.finishAt(p0)
	if b.err != nil {
		return nil, b.err
	}
	if err := cp.Net.Validate(); err != nil {
		return nil, fmt.Errorf("compile %s: internal error: %v", p.Name, err)
	}
	return cp, nil
}

// builder constructs the net by successive refinement: it keeps a current
// frontier place (the program counter) and accumulates the statements of
// the current portion until a leader boundary forces a transition.
type builder struct {
	cp       *CompiledProcess
	cur      *petri.Place
	pending  []flowc.Stmt
	pendRead *flowc.Read // READ_DATA heading the current portion
	label    string      // label for the next emitted transition
	placeSeq int
	transSeq int
	dead     bool // control cannot reach here (after while(1))
	err      error
}

func (b *builder) fail(pos flowc.Pos, format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("%s: %v: %s", b.cp.Proc.Name, pos, fmt.Sprintf(format, args...))
	}
}

func (b *builder) newPlace() *petri.Place {
	pl := b.cp.Net.AddPlace(fmt.Sprintf("%s_p%d", b.cp.Proc.Name, b.placeSeq), petri.PlaceInternal, 0)
	pl.Process = b.cp.Proc.Name
	b.placeSeq++
	return pl
}

func (b *builder) port(name string, pos flowc.Pos) *petri.Place {
	pl := b.cp.PortPlace[name]
	if pl == nil {
		b.fail(pos, "unknown port %s", name)
	}
	return pl
}

func (b *builder) hasPending() bool {
	return len(b.pending) > 0 || b.pendRead != nil || b.label != ""
}

// emit creates the transition for the current portion, consuming the
// frontier place (plus the port place of a heading READ), producing into
// to (plus the port place of a trailing WRITE), and advances the frontier.
func (b *builder) emit(to *petri.Place, write *flowc.Write) *petri.Transition {
	t := b.cp.Net.AddTransition(fmt.Sprintf("%s_t%d", b.cp.Proc.Name, b.transSeq), petri.TransNormal)
	b.transSeq++
	t.Process = b.cp.Proc.Name
	t.Label = b.label
	var stmts []flowc.Stmt
	if b.pendRead != nil {
		stmts = append(stmts, b.pendRead)
	}
	stmts = append(stmts, b.pending...)
	if write != nil {
		stmts = append(stmts, write)
	}
	t.Code = &Fragment{Process: b.cp.Proc.Name, Stmts: stmts}
	b.cp.Net.AddArc(b.cur, t, 1)
	if b.pendRead != nil {
		if pp := b.port(b.pendRead.Port, b.pendRead.Pos); pp != nil {
			b.cp.Net.AddArc(pp, t, b.pendRead.NItems)
		}
	}
	if write != nil {
		if pp := b.port(write.Port, write.Pos); pp != nil {
			b.cp.Net.AddArcTP(t, pp, write.NItems)
		}
	}
	b.cp.Net.AddArcTP(t, to, 1)
	b.pending = nil
	b.pendRead = nil
	b.label = ""
	b.cur = to
	return t
}

// flush closes the current portion into a fresh place if anything is
// pending.
func (b *builder) flush() {
	if b.hasPending() {
		b.emit(b.newPlace(), nil)
	}
}

// finishAt ends the current region at the given place, emitting a final
// (possibly silent) transition when needed.
func (b *builder) finishAt(to *petri.Place) {
	if b.dead {
		b.dead = false
		b.cur = to
		return
	}
	if b.hasPending() || b.cur != to {
		b.emit(to, nil)
	}
}

func (b *builder) compileSeq(stmts []flowc.Stmt) {
	for _, s := range stmts {
		if b.err != nil {
			return
		}
		if b.dead {
			b.fail(s.StmtPos(), "unreachable statement after infinite loop")
			return
		}
		b.compileStmt(s)
	}
}

func (b *builder) compileStmt(s flowc.Stmt) {
	if !containsPortOp(s) {
		// Declarations are hoisted; initializers become assignments.
		if ds, ok := s.(*flowc.DeclStmt); ok {
			b.hoistDecl(ds)
			return
		}
		b.pending = append(b.pending, s)
		return
	}
	switch x := s.(type) {
	case *flowc.Read:
		// Rule 2: READ_DATA is a leader — close the current portion.
		b.flush()
		b.pendRead = x
	case *flowc.Write:
		// A labeled (choice-successor) transition must carry no port
		// arcs, so the equal-conflict property of the T/F pair is
		// preserved even for bounded channels.
		if b.label != "" {
			b.flush()
		}
		b.emit(b.newPlace(), x)
	case *flowc.Block:
		b.compileSeq(x.Stmts)
	case *flowc.If:
		b.compileIf(x)
	case *flowc.While:
		b.compileWhile(x)
	case *flowc.For:
		b.compileFor(x)
	case *flowc.Select:
		b.compileSelect(x)
	case *flowc.DeclStmt:
		b.hoistDecl(x)
	default:
		b.fail(s.StmtPos(), "cannot compile statement %T", s)
	}
}

func (b *builder) hoistDecl(ds *flowc.DeclStmt) {
	for _, v := range ds.Vars {
		b.cp.InitVars = append(b.cp.InitVars, flowc.VarDecl{Name: v.Name, ArraySize: v.ArraySize, Pos: v.Pos})
		if v.ArraySize > 0 {
			b.cp.Arrays[v.Name] = v.ArraySize
		}
		if v.Init != nil {
			b.pending = append(b.pending, &flowc.ExprStmt{
				X:   &flowc.Assign{Op: flowc.TokAssign, LHS: &flowc.Ident{Name: v.Name, Pos: v.Pos}, RHS: v.Init, Pos: v.Pos},
				Pos: v.Pos,
			})
		}
	}
}

// constBool folds constant conditions; ok is false for non-constant ones.
func constBool(e flowc.Expr) (val, ok bool) {
	if lit, isLit := e.(*flowc.IntLit); isLit {
		return lit.Val != 0, true
	}
	return false, false
}

func (b *builder) compileIf(x *flowc.If) {
	if v, ok := constBool(x.Cond); ok {
		if v {
			b.compileSeq(toList(x.Then))
		} else {
			b.compileSeq(toList(x.Else))
		}
		return
	}
	b.flush()
	choice := b.cur
	choice.Cond = &ChoiceInfo{Kind: ChoiceData, Cond: x.Cond}
	join := b.newPlace()

	b.cur = choice
	b.label = "T"
	b.compileSeq(toList(x.Then))
	b.finishAt(join)
	if b.err != nil {
		return
	}
	b.cur = choice
	b.label = "F"
	b.compileSeq(toList(x.Else))
	b.finishAt(join)
	b.cur = join
}

func (b *builder) compileWhile(x *flowc.While) {
	if v, ok := constBool(x.Cond); ok {
		if !v {
			return
		}
		// while(1): unconditional loop; code after it is unreachable.
		b.flush()
		head := b.cur
		b.compileSeq(toList(x.Body))
		b.finishAt(head)
		b.dead = true
		return
	}
	b.flush()
	head := b.cur
	head.Cond = &ChoiceInfo{Kind: ChoiceData, Cond: x.Cond}
	b.label = "T"
	b.compileSeq(toList(x.Body))
	b.finishAt(head)
	if b.err != nil {
		return
	}
	// Continue after the loop from the same choice place: the next
	// portion becomes the F successor.
	b.cur = head
	b.label = "F"
}

func (b *builder) compileFor(x *flowc.For) {
	// Desugar: { init; while (cond) { body; post; } }
	if x.Init != nil {
		b.compileStmt(x.Init)
	}
	cond := x.Cond
	if cond == nil {
		cond = &flowc.IntLit{Val: 1, Pos: x.Pos}
	}
	var body []flowc.Stmt
	body = append(body, toList(x.Body)...)
	if x.Post != nil {
		body = append(body, &flowc.ExprStmt{X: x.Post, Pos: x.Post.ExprPos()})
	}
	b.compileWhile(&flowc.While{Cond: cond, Body: &flowc.Block{Stmts: body, Pos: x.Pos}, Pos: x.Pos})
}

func (b *builder) compileSelect(x *flowc.Select) {
	b.flush()
	choice := b.cur
	choice.Cond = &ChoiceInfo{Kind: ChoiceSelect}
	join := b.newPlace()
	for i := range x.Arms {
		arm := &x.Arms[i]
		t := b.cp.Net.AddTransition(fmt.Sprintf("%s_t%d", b.cp.Proc.Name, b.transSeq), petri.TransNormal)
		b.transSeq++
		t.Process = b.cp.Proc.Name
		t.Label = fmt.Sprintf("sel%d", i)
		t.Code = &Fragment{Process: b.cp.Proc.Name}
		b.cp.Net.AddArc(choice, t, 1)
		pd := b.cp.Proc.PortByName(arm.Port)
		if pd == nil {
			b.fail(arm.Pos, "unknown port %s in SELECT", arm.Port)
			return
		}
		if pd.Dir == flowc.PortIn {
			// Availability test: at least NItems tokens, not consumed.
			b.cp.Net.AddSelfLoop(b.cp.PortPlace[arm.Port], t, arm.NItems)
		}
		// Out ports need the channel's complement place: recorded for
		// link-time fixup.
		b.cp.SelectArms = append(b.cp.SelectArms, SelectArmRef{
			Trans: t.ID, Port: arm.Port, NItems: arm.NItems, Index: i,
		})
		entry := b.newPlace()
		b.cp.Net.AddArcTP(t, entry, 1)
		b.cur = entry
		b.compileSeq(arm.Body)
		b.finishAt(join)
		if b.err != nil {
			return
		}
	}
	b.cur = join
}
