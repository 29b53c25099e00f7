// Package sim provides the evaluation substrate of the reproduction: a
// deterministic cycle-cost interpreter with two executors — the
// 4-processes-as-4-tasks round-robin baseline and the synthesized
// single-task executor — plus the cost-model presets and the code-size
// estimator used to regenerate Figure 20 and Tables 1 and 2.
//
// Both executors run FlowC statements through one interpreter,
// Machine.Exec, and differ only in the Port that carries out READ_DATA,
// WRITE_DATA and SELECT. The baseline runs each process as a coroutine
// that yields where a port operation would block; every process has
// stopped when Baseline.Run returns.
//
// The paper measured a real R3000 board; this package substitutes a
// calibrated cost model that exercises the same code paths (context
// switches and channel traffic versus inlined sequential code), so the
// relative results — who wins and by roughly what factor — are
// preserved even though absolute cycle counts are synthetic.
package sim

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/flowc"
)

// Cell is one variable: a scalar is a slice of length 1.
type Cell []int64

// Scope is a variable environment. Process locals become per-process
// scopes after linking (the paper uniquifies names instead; the effect
// is identical).
type Scope struct {
	vars map[string]Cell
}

// NewScope returns an empty scope.
func NewScope() *Scope { return &Scope{vars: map[string]Cell{}} }

// Declare creates a variable. Size 0 declares a scalar.
func (s *Scope) Declare(name string, size int) {
	if size <= 0 {
		size = 1
	}
	s.vars[name] = make(Cell, size)
}

// Cell returns the storage of a variable, declaring a scalar on first
// use (FlowC requires declarations, but hand-written fragments in tests
// may skip them).
func (s *Scope) Cell(name string) Cell {
	c, ok := s.vars[name]
	if !ok {
		c = make(Cell, 1)
		s.vars[name] = c
	}
	return c
}

// Get returns the scalar value of a variable.
func (s *Scope) Get(name string) int64 { return s.Cell(name)[0] }

// lvalue is a resolved assignable location.
type lvalue struct {
	cell Cell
	idx  int
}

func (l lvalue) get() int64 { return l.cell[l.idx] }

func (l lvalue) set(v int64) { l.cell[l.idx] = v }

// Machine evaluates expressions and executes statements while charging
// cycles to a cost model. It is the one statement interpreter of both
// executors; each supplies the Port its port operations go through.
type Machine struct {
	Cost   *CostModel
	Cycles int64
	// Steps counts executed statements and loop iterations; it charges
	// no cycles. MaxSteps bounds it, so a runaway loop fails instead of
	// spinning. The executors reset Steps each time they resume a
	// process or serve a trigger, so the budget bounds the work between
	// two yields, not a whole run.
	Steps    int64
	MaxSteps int64
}

// NewMachine returns a machine with the given cost model and a default
// step budget of 100 million statements per resume.
func NewMachine(cost *CostModel) *Machine {
	return &Machine{Cost: cost, MaxSteps: 100_000_000}
}

// Charge adds cycles.
func (m *Machine) Charge(c int64) { m.Cycles += c }

func (m *Machine) step() error {
	m.Steps++
	if m.Steps > m.MaxSteps {
		return fmt.Errorf("sim: statement budget exhausted (%d)", m.MaxSteps)
	}
	return nil
}

// Eval evaluates an expression in a scope, charging per-operator costs.
func (m *Machine) Eval(sc *Scope, e flowc.Expr) (int64, error) {
	switch x := e.(type) {
	case *flowc.IntLit:
		return x.Val, nil
	case *flowc.Ident:
		return sc.Get(x.Name), nil
	case *flowc.Index:
		lv, err := m.lval(sc, x)
		if err != nil {
			return 0, err
		}
		return lv.get(), nil
	case *flowc.Unary:
		v, err := m.Eval(sc, x.X)
		if err != nil {
			return 0, err
		}
		m.Charge(m.Cost.AluOp)
		switch x.Op {
		case flowc.TokNot:
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		case flowc.TokMinus:
			return -v, nil
		}
		return 0, fmt.Errorf("sim: bad unary operator %v", x.Op)
	case *flowc.Binary:
		l, err := m.Eval(sc, x.L)
		if err != nil {
			return 0, err
		}
		// Short-circuit logicals.
		switch x.Op {
		case flowc.TokAndAnd:
			m.Charge(m.Cost.AluOp)
			if l == 0 {
				return 0, nil
			}
			r, err := m.Eval(sc, x.R)
			if err != nil {
				return 0, err
			}
			return b2i(r != 0), nil
		case flowc.TokOrOr:
			m.Charge(m.Cost.AluOp)
			if l != 0 {
				return 1, nil
			}
			r, err := m.Eval(sc, x.R)
			if err != nil {
				return 0, err
			}
			return b2i(r != 0), nil
		}
		r, err := m.Eval(sc, x.R)
		if err != nil {
			return 0, err
		}
		m.Charge(m.Cost.AluOp)
		switch x.Op {
		case flowc.TokPlus:
			return l + r, nil
		case flowc.TokMinus:
			return l - r, nil
		case flowc.TokStar:
			return l * r, nil
		case flowc.TokSlash:
			if r == 0 {
				return 0, fmt.Errorf("sim: division by zero")
			}
			return l / r, nil
		case flowc.TokPercent:
			if r == 0 {
				return 0, fmt.Errorf("sim: modulo by zero")
			}
			return l % r, nil
		case flowc.TokEq:
			return b2i(l == r), nil
		case flowc.TokNeq:
			return b2i(l != r), nil
		case flowc.TokLt:
			return b2i(l < r), nil
		case flowc.TokLe:
			return b2i(l <= r), nil
		case flowc.TokGt:
			return b2i(l > r), nil
		case flowc.TokGe:
			return b2i(l >= r), nil
		}
		return 0, fmt.Errorf("sim: bad binary operator %v", x.Op)
	case *flowc.Assign:
		lv, err := m.lval(sc, x.LHS)
		if err != nil {
			return 0, err
		}
		r, err := m.Eval(sc, x.RHS)
		if err != nil {
			return 0, err
		}
		m.Charge(m.Cost.Assign)
		switch x.Op {
		case flowc.TokAssign:
			lv.set(r)
		case flowc.TokPlusEq:
			lv.set(lv.get() + r)
		case flowc.TokMinusEq:
			lv.set(lv.get() - r)
		default:
			return 0, fmt.Errorf("sim: bad assignment operator %v", x.Op)
		}
		return lv.get(), nil
	case *flowc.IncDec:
		lv, err := m.lval(sc, x.X)
		if err != nil {
			return 0, err
		}
		m.Charge(m.Cost.Assign)
		old := lv.get()
		if x.Op == flowc.TokInc {
			lv.set(old + 1)
		} else {
			lv.set(old - 1)
		}
		if x.Post {
			return old, nil
		}
		return lv.get(), nil
	}
	return 0, fmt.Errorf("sim: cannot evaluate %T", e)
}

func (m *Machine) lval(sc *Scope, e flowc.Expr) (lvalue, error) {
	switch x := e.(type) {
	case *flowc.Ident:
		return lvalue{cell: sc.Cell(x.Name)}, nil
	case *flowc.Index:
		id, ok := x.Arr.(*flowc.Ident)
		if !ok {
			return lvalue{}, fmt.Errorf("sim: array expression must be an identifier")
		}
		iv, err := m.Eval(sc, x.Idx)
		if err != nil {
			return lvalue{}, err
		}
		cell := sc.Cell(id.Name)
		if iv < 0 || iv >= int64(len(cell)) {
			return lvalue{}, fmt.Errorf("sim: index %d out of range for %s (size %d)", iv, id.Name, len(cell))
		}
		return lvalue{cell: cell, idx: int(iv)}, nil
	}
	return lvalue{}, fmt.Errorf("sim: %T is not assignable", e)
}

// EvalBool evaluates an expression as a truth value.
func (m *Machine) EvalBool(sc *Scope, e flowc.Expr) (bool, error) {
	v, err := m.Eval(sc, e)
	return v != 0, err
}

// Port carries out the port operations of one process for Exec.
type Port interface {
	Read(sc *Scope, x *flowc.Read) error
	Write(sc *Scope, x *flowc.Write) error
	// Select returns the index of the arm to run, once one can proceed.
	Select(x *flowc.Select) (int, error)
}

// Exec executes one statement, charging the cost model. Port
// operations go to port; with a nil port they are an error. Every
// statement and every loop iteration counts against MaxSteps.
func (m *Machine) Exec(sc *Scope, s flowc.Stmt, port Port) error {
	if err := m.step(); err != nil {
		return err
	}
	switch x := s.(type) {
	case nil:
		return nil
	case *flowc.DeclStmt:
		for _, v := range x.Vars {
			sc.Declare(v.Name, v.ArraySize)
			if v.Init != nil {
				iv, err := m.Eval(sc, v.Init)
				if err != nil {
					return err
				}
				m.Charge(m.Cost.Assign)
				sc.Cell(v.Name)[0] = iv
			}
		}
		return nil
	case *flowc.ExprStmt:
		_, err := m.Eval(sc, x.X)
		return err
	case *flowc.Block:
		return m.execSeq(sc, x.Stmts, port)
	case *flowc.If:
		m.Charge(m.Cost.Branch)
		c, err := m.EvalBool(sc, x.Cond)
		if err != nil {
			return err
		}
		if c {
			return m.Exec(sc, x.Then, port)
		}
		return m.Exec(sc, x.Else, port)
	case *flowc.While:
		for {
			m.Charge(m.Cost.Branch)
			c, err := m.EvalBool(sc, x.Cond)
			if err != nil {
				return err
			}
			if !c {
				return nil
			}
			if err := m.Exec(sc, x.Body, port); err != nil {
				return err
			}
			if err := m.step(); err != nil {
				return err
			}
		}
	case *flowc.For:
		if x.Init != nil {
			if err := m.Exec(sc, x.Init, port); err != nil {
				return err
			}
		}
		for {
			if x.Cond != nil {
				m.Charge(m.Cost.Branch)
				c, err := m.EvalBool(sc, x.Cond)
				if err != nil {
					return err
				}
				if !c {
					return nil
				}
			}
			if err := m.Exec(sc, x.Body, port); err != nil {
				return err
			}
			if x.Post != nil {
				if _, err := m.Eval(sc, x.Post); err != nil {
					return err
				}
			}
			if err := m.step(); err != nil {
				return err
			}
		}
	case *flowc.Read:
		if port != nil {
			return port.Read(sc, x)
		}
	case *flowc.Write:
		if port != nil {
			return port.Write(sc, x)
		}
	case *flowc.Select:
		if port != nil {
			m.Charge(m.Cost.Branch)
			i, err := port.Select(x)
			if err != nil {
				return err
			}
			return m.execSeq(sc, x.Arms[i].Body, port)
		}
	}
	return fmt.Errorf("sim: cannot execute %T here (a port operation needs a port)", s)
}

// execSeq executes statements in order, stopping at the first error.
func (m *Machine) execSeq(sc *Scope, stmts []flowc.Stmt, port Port) error {
	for _, st := range stmts {
		if err := m.Exec(sc, st, port); err != nil {
			return err
		}
	}
	return nil
}

// startProcess returns a new scope for one process of either executor:
// its hoisted variables declared, their startup initializers evaluated
// and its startup statements run.
func (m *Machine) startProcess(cp *compile.CompiledProcess) (*Scope, error) {
	sc := NewScope()
	for _, v := range cp.InitVars {
		sc.Declare(v.Name, v.ArraySize)
		if v.Init != nil {
			iv, err := m.Eval(sc, v.Init)
			if err != nil {
				return nil, err
			}
			sc.Cell(v.Name)[0] = iv
		}
	}
	if err := m.execSeq(sc, cp.InitStmts, nil); err != nil {
		return nil, err
	}
	return sc, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
