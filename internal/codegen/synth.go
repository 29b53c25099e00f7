package codegen

import (
	"fmt"

	"strings"

	"repro/internal/compile"
	"repro/internal/flowc"
	"repro/internal/link"
	"repro/internal/petri"
)

// Synthesis of the sequential C task (Section 6.4). The output has three
// parts: declarations (state variables, intra-task channel buffers),
// initialization, and the Run function (named ISR after the paper) with
// one labeled section per code segment, chained by gotos.
//
// When the schedule was derived from a linked FlowC system, transition
// fragments are pasted with process-prefixed variable names, and
// READ_DATA/WRITE_DATA on intra-task channels are rewritten onto local
// buffers. For hand-built nets (no fragments) transitions are emitted as
// function calls, matching Figure 16 of the paper.

// SynthOptions controls synthesis.
type SynthOptions struct {
	// Sys is the linked system; nil for hand-built nets.
	Sys *link.System
	// SharedChannels lists channel place IDs that other tasks also use
	// and that therefore must stay real channels. Channels not listed
	// and fully covered by this task become intra-task buffers.
	SharedChannels map[int]bool
}

// IntraChannels returns the channel places of the system that collapse
// into this task: all their readers and writers are involved in the
// task's schedule and no other task shares them. The value is the buffer
// size guaranteed by the schedule.
func (t *Task) IntraChannels(opt *SynthOptions) map[int]int {
	out := map[int]int{}
	if opt == nil || opt.Sys == nil {
		return out
	}
	involved := map[int]bool{}
	for _, tr := range t.Schedule.InvolvedTransitions() {
		involved[tr] = true
	}
	bounds := t.Schedule.PlaceBounds()
	for _, ch := range opt.Sys.Channels {
		if opt.SharedChannels[ch.Place.ID] {
			continue
		}
		all := true
		used := false
		for _, tr := range t.Net.Transitions {
			w := tr.Weight(ch.Place.ID)
			ow := tr.OutWeight(ch.Place.ID)
			if w == 0 && ow == 0 {
				continue
			}
			if w == ow {
				continue // SELECT availability self-loop
			}
			used = true
			if !involved[tr.ID] {
				all = false
			}
		}
		if used && all {
			sz := bounds[ch.Place.ID]
			if sz < 1 {
				sz = 1
			}
			out[ch.Place.ID] = sz
		}
	}
	return out
}

// Synthesize renders the task as C source.
func Synthesize(t *Task, opt *SynthOptions) string {
	var sb strings.Builder
	em := &emitter{task: t, opt: opt, out: &sb}
	if opt != nil {
		em.intra = t.IntraChannels(opt)
	}
	em.emitHeader()
	em.emitInit()
	em.emitISR()
	return sb.String()
}

type emitter struct {
	task  *Task
	opt   *SynthOptions
	out   *strings.Builder
	intra map[int]int // channel place -> buffer size
	depth int
}

func (em *emitter) p(format string, args ...any) {
	for i := 0; i < em.depth; i++ {
		em.out.WriteString("  ")
	}
	fmt.Fprintf(em.out, format, args...)
	em.out.WriteByte('\n')
}

func (em *emitter) sysName() string {
	if em.opt != nil && em.opt.Sys != nil {
		return em.opt.Sys.Name
	}
	return em.task.Net.Name
}

func (em *emitter) emitHeader() {
	em.p("/* Task %s: quasi-statically scheduled for source %s. */",
		em.task.Name, em.task.Net.Transitions[em.task.Source].Name)
	em.p("#include \"%s.data.h\"", em.sysName())
	em.p("")
	for _, pid := range em.task.StateVars {
		em.p("int %s;", em.stateVarName(pid))
	}
	// Intra-task channel buffers (size-1 buffers become plain variables).
	for _, pid := range sortedIntKeys(em.intra) {
		sz := em.intra[pid]
		name := em.bufName(pid)
		if sz == 1 {
			em.p("int %s;", name)
		} else {
			em.p("int %s[%d]; int %s_r, %s_w;", name, sz, name, name)
		}
	}
	// Process variables become globals with uniquified names.
	if em.opt != nil && em.opt.Sys != nil {
		for _, cp := range em.opt.Sys.Procs {
			for _, v := range cp.InitVars {
				if v.ArraySize > 0 {
					em.p("int %s_%s[%d];", cp.Proc.Name, v.Name, v.ArraySize)
				} else {
					em.p("int %s_%s;", cp.Proc.Name, v.Name)
				}
			}
		}
	}
	em.p("")
}

func (em *emitter) stateVarName(pid int) string {
	return sanitizeLabel(em.task.Net.Places[pid].Name)
}

func (em *emitter) bufName(pid int) string {
	return "BUF_" + sanitizeLabel(em.task.Net.Places[pid].Name)
}

func (em *emitter) emitInit() {
	em.p("void %s_init(void)", em.task.Name)
	em.p("{")
	em.depth++
	m0 := em.task.Net.InitialMarking()
	for _, pid := range em.task.StateVars {
		em.p("%s = %d;", em.stateVarName(pid), m0[pid])
	}
	for _, pid := range sortedIntKeys(em.intra) {
		name := em.bufName(pid)
		if em.intra[pid] == 1 {
			em.p("%s = 0;", name)
		} else {
			em.p("%s_r = 0; %s_w = 0;", name, name)
		}
	}
	// Startup initializers of the top-level declaration prefix, then the
	// port-free initialization statements.
	if em.opt != nil && em.opt.Sys != nil {
		for _, cp := range em.opt.Sys.Procs {
			for _, v := range cp.InitVars {
				if v.Init != nil {
					em.p("%s_%s = %s;", cp.Proc.Name, v.Name, em.exprC(v.Init, cp.Proc.Name))
				}
			}
			for _, st := range cp.InitStmts {
				em.emitStmt(st, cp.Proc.Name)
			}
		}
	}
	em.depth--
	em.p("}")
	em.p("")
}

func (em *emitter) emitISR() {
	em.p("void %s_ISR(void)", em.task.Name)
	em.p("{")
	em.depth++
	for _, seg := range em.task.Segments {
		em.p("%s:", seg.Label)
		em.emitSegNode(seg.Root)
	}
	em.depth--
	em.p("}")
}

func (em *emitter) emitSegNode(n *SegNode) {
	if len(n.Edges) == 1 {
		e := n.Edges[0]
		em.emitTransition(e.Trans)
		if e.Child != nil {
			em.emitSegNode(e.Child)
		} else {
			em.emitLeaf(e.Leaf)
		}
		return
	}
	// Data-dependent choice: a two-way ECS with T/F labels, or a choice
	// over a hand net without conditions.
	cond := em.choiceCond(n)
	for i, e := range n.Edges {
		t := em.task.Net.Transitions[e.Trans]
		switch {
		case i == 0:
			em.p("if (%s) {", em.branchCond(cond, t, true))
		case i == len(n.Edges)-1:
			em.p("} else {")
		default:
			em.p("} else if (%s) {", em.branchCond(cond, t, false))
		}
		em.depth++
		em.emitTransition(e.Trans)
		if e.Child != nil {
			em.emitSegNode(e.Child)
		} else {
			em.emitLeaf(e.Leaf)
		}
		em.depth--
	}
	em.p("}")
}

// choiceCond finds the data condition of the ECS's choice place, if any.
func (em *emitter) choiceCond(n *SegNode) string {
	t0 := em.task.Net.Transitions[n.ECS.Trans[0]]
	for _, a := range t0.In {
		p := em.task.Net.Places[a.Place]
		if ci, ok := p.Cond.(*compile.ChoiceInfo); ok && ci.Kind == compile.ChoiceData {
			return em.exprC(ci.Cond, t0.Process)
		}
	}
	// Hand-built net: Figure 16 style.
	for _, a := range t0.In {
		if len(em.task.Net.Successors(a.Place)) > 1 {
			return fmt.Sprintf("condition(%s)", em.task.Net.Places[a.Place].Name)
		}
	}
	return "condition()"
}

// branchCond orients the condition by the transition's T/F label.
func (em *emitter) branchCond(cond string, t *petri.Transition, first bool) string {
	switch t.Label {
	case "T":
		return cond
	case "F":
		return fmt.Sprintf("!(%s)", cond)
	}
	if first {
		return fmt.Sprintf("%s == TRUE", cond)
	}
	return fmt.Sprintf("%s == FALSE", cond)
}

// emitTransition pastes the code fragment of a transition (or a function
// call for fragment-less nets).
func (em *emitter) emitTransition(tid int) {
	t := em.task.Net.Transitions[tid]
	frag, ok := t.Code.(*compile.Fragment)
	if !ok {
		if t.Kind == petri.TransSink {
			em.p("/* deliver %s to the environment */", t.Name)
			return
		}
		em.p("%s();", sanitizeLabel(t.Name))
		return
	}
	if frag.IsSilent() {
		return
	}
	for _, s := range frag.Stmts {
		em.emitStmt(s, frag.Process)
	}
}

func (em *emitter) emitStmt(s flowc.Stmt, proc string) {
	switch x := s.(type) {
	case *flowc.Read:
		em.emitRead(x, proc)
	case *flowc.Write:
		em.emitWrite(x, proc)
	default:
		text := flowc.FormatStmt(renameStmt(s, prefixer(proc)), 0)
		for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
			em.p("%s", strings.TrimRight(line, " "))
		}
	}
}

// channelPlace resolves the channel place a process port is bound to, or
// -1 for environment ports.
func (em *emitter) channelPlace(proc, port string) int {
	if em.opt == nil || em.opt.Sys == nil {
		return -1
	}
	b := em.opt.Sys.PortBinding(proc, port)
	if b != nil && b.Kind == link.BindChannel {
		return b.Channel.Place.ID
	}
	return -1
}

func (em *emitter) emitRead(r *flowc.Read, proc string) {
	dest := em.exprC(r.Dest, proc)
	pid := em.channelPlace(proc, r.Port)
	if pid < 0 {
		// Environment port: keep the communication primitive.
		em.p("READ_DATA(%s, &%s, %d);", r.Port, dest, r.NItems)
		return
	}
	sz, intra := em.intra[pid]
	if !intra {
		em.p("READ_DATA(%s, &%s, %d);", em.task.Net.Places[pid].Name, dest, r.NItems)
		return
	}
	name := em.bufName(pid)
	itemwise := em.itemwise(r.Dest, proc, r.NItems)
	switch {
	case !itemwise && sz == 1:
		em.p("%s = %s;", dest, name)
	case !itemwise:
		em.p("%s = %s[%s_r]; %s_r = (%s_r + 1) %% %d;", dest, name, name, name, name, sz)
	case sz == 1:
		em.p("%s[0] = %s;", dest, name)
	default:
		em.p("{ int k_; for (k_ = 0; k_ < %d; k_++) { %s[k_] = %s[%s_r]; %s_r = (%s_r + 1) %% %d; } }",
			r.NItems, dest, name, name, name, name, sz)
	}
}

// itemwise reports whether a READ_DATA destination or WRITE_DATA source
// of proc moves its items through an index: it carries more than one
// item, or it names an array. Otherwise it is a scalar, and its one
// item moves by a plain assignment, whatever the channel buffer's size.
func (em *emitter) itemwise(e flowc.Expr, proc string, nitems int) bool {
	if nitems > 1 {
		return true
	}
	id, ok := e.(*flowc.Ident)
	if !ok {
		return false
	}
	for _, cp := range em.opt.Sys.Procs {
		if cp.Proc.Name == proc {
			_, arr := cp.Arrays[id.Name]
			return arr
		}
	}
	return false
}

func (em *emitter) emitWrite(w *flowc.Write, proc string) {
	src := em.exprC(w.Src, proc)
	pid := em.channelPlace(proc, w.Port)
	if pid < 0 {
		em.p("WRITE_DATA(%s, %s, %d);", w.Port, src, w.NItems)
		return
	}
	sz, intra := em.intra[pid]
	if !intra {
		em.p("WRITE_DATA(%s, %s, %d);", em.task.Net.Places[pid].Name, src, w.NItems)
		return
	}
	name := em.bufName(pid)
	itemwise := em.itemwise(w.Src, proc, w.NItems)
	switch {
	case !itemwise && sz == 1:
		em.p("%s = %s;", name, src)
	case !itemwise:
		em.p("%s[%s_w] = %s; %s_w = (%s_w + 1) %% %d;", name, name, src, name, name, sz)
	case sz == 1:
		em.p("%s = %s[0];", name, src)
	default:
		em.p("{ int k_; for (k_ = 0; k_ < %d; k_++) { %s[%s_w] = %s[k_]; %s_w = (%s_w + 1) %% %d; } }",
			w.NItems, name, name, src, name, name, sz)
	}
}

// emitLeaf writes the update and jump sections of a code segment leaf.
func (em *emitter) emitLeaf(l *Leaf) {
	// Update section.
	for _, pid := range sortedIntKeys(l.Update) {
		d := l.Update[pid]
		name := em.stateVarName(pid)
		if d > 0 {
			em.p("%s = %s + %d;", name, name, d)
		} else {
			em.p("%s = %s - %d;", name, name, -d)
		}
	}
	// Jump section.
	targets := map[int]bool{}
	for _, st := range l.States {
		targets[st.NextECS] = true
	}
	if len(targets) == 1 {
		em.emitJump(l.States[0].NextECS)
		return
	}
	// Switch on the state variables (emitted as an if/else chain, as in
	// Figure 16).
	groups := map[int][]LeafState{}
	for _, st := range l.States {
		groups[st.NextECS] = append(groups[st.NextECS], st)
	}
	keys := sortedBoolKeys(targets)
	for i, next := range keys {
		cond := em.stateCond(groups[next])
		if i == len(keys)-1 {
			em.p("else {")
		} else if i == 0 {
			em.p("if (%s) {", cond)
		} else {
			em.p("else if (%s) {", cond)
		}
		em.depth++
		em.emitJump(next)
		em.depth--
		em.p("}")
	}
}

// stateCond renders a condition over state variables matching any of the
// given states.
func (em *emitter) stateCond(states []LeafState) string {
	var alts []string
	for _, st := range states {
		var conj []string
		for _, pid := range em.task.StateVars {
			conj = append(conj, fmt.Sprintf("%s == %d", em.stateVarName(pid), st.Marking[pid]))
		}
		if len(conj) == 0 {
			conj = []string{"1"}
		}
		alts = append(alts, strings.Join(conj, " && "))
	}
	if len(alts) == 1 {
		return alts[0]
	}
	return "(" + strings.Join(alts, ") || (") + ")"
}

func (em *emitter) emitJump(nextECS int) {
	if nextECS < 0 {
		em.p("return;")
		return
	}
	seg := em.task.SegByECS[nextECS]
	if seg == nil {
		em.p("/* internal error: no segment for ECS %d */", nextECS)
		return
	}
	em.p("goto %s;", seg.Label)
}

// exprC renders an expression with process-prefixed variable names.
func (em *emitter) exprC(e flowc.Expr, proc string) string {
	return flowc.FormatExpr(renameExpr(e, prefixer(proc)))
}

func prefixer(proc string) func(string) string {
	return func(name string) string {
		if proc == "" {
			return name
		}
		return proc + "_" + name
	}
}

// renameExpr returns a copy of the expression with identifiers renamed.
func renameExpr(e flowc.Expr, f func(string) string) flowc.Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *flowc.Ident:
		return &flowc.Ident{Name: f(x.Name), Pos: x.Pos}
	case *flowc.IntLit:
		return x
	case *flowc.Binary:
		return &flowc.Binary{Op: x.Op, L: renameExpr(x.L, f), R: renameExpr(x.R, f), Pos: x.Pos}
	case *flowc.Unary:
		return &flowc.Unary{Op: x.Op, X: renameExpr(x.X, f), Pos: x.Pos}
	case *flowc.Assign:
		return &flowc.Assign{Op: x.Op, LHS: renameExpr(x.LHS, f), RHS: renameExpr(x.RHS, f), Pos: x.Pos}
	case *flowc.IncDec:
		return &flowc.IncDec{Op: x.Op, X: renameExpr(x.X, f), Post: x.Post, Pos: x.Pos}
	case *flowc.Index:
		return &flowc.Index{Arr: renameExpr(x.Arr, f), Idx: renameExpr(x.Idx, f), Pos: x.Pos}
	}
	return e
}

// renameStmt returns a copy of the statement with identifiers renamed.
// Port names in Read/Write/Select are left untouched.
func renameStmt(s flowc.Stmt, f func(string) string) flowc.Stmt {
	switch x := s.(type) {
	case nil:
		return nil
	case *flowc.DeclStmt:
		vars := make([]flowc.VarDecl, len(x.Vars))
		for i, v := range x.Vars {
			vars[i] = flowc.VarDecl{Name: f(v.Name), ArraySize: v.ArraySize, Init: renameExpr(v.Init, f), Pos: v.Pos}
		}
		return &flowc.DeclStmt{Vars: vars, Pos: x.Pos}
	case *flowc.ExprStmt:
		return &flowc.ExprStmt{X: renameExpr(x.X, f), Pos: x.Pos}
	case *flowc.Block:
		stmts := make([]flowc.Stmt, len(x.Stmts))
		for i, st := range x.Stmts {
			stmts[i] = renameStmt(st, f)
		}
		return &flowc.Block{Stmts: stmts, Pos: x.Pos}
	case *flowc.If:
		return &flowc.If{Cond: renameExpr(x.Cond, f), Then: renameStmt(x.Then, f), Else: renameStmt(x.Else, f), Pos: x.Pos}
	case *flowc.While:
		return &flowc.While{Cond: renameExpr(x.Cond, f), Body: renameStmt(x.Body, f), Pos: x.Pos}
	case *flowc.For:
		return &flowc.For{Init: renameStmt(x.Init, f), Cond: renameExpr(x.Cond, f), Post: renameExpr(x.Post, f), Body: renameStmt(x.Body, f), Pos: x.Pos}
	case *flowc.Read:
		return &flowc.Read{Port: x.Port, Dest: renameExpr(x.Dest, f), NItems: x.NItems, Pos: x.Pos}
	case *flowc.Write:
		return &flowc.Write{Port: x.Port, Src: renameExpr(x.Src, f), NItems: x.NItems, Pos: x.Pos}
	case *flowc.Select:
		arms := make([]flowc.SelectArm, len(x.Arms))
		for i, a := range x.Arms {
			body := make([]flowc.Stmt, len(a.Body))
			for j, st := range a.Body {
				body[j] = renameStmt(st, f)
			}
			arms[i] = flowc.SelectArm{Port: a.Port, NItems: a.NItems, Body: body, Pos: a.Pos}
		}
		return &flowc.Select{Arms: arms, Pos: x.Pos}
	}
	return s
}
