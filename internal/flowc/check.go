package flowc

import (
	"fmt"

	"repro/internal/petri"
)

// Check performs semantic validation of a process:
//
//   - every READ_DATA / WRITE_DATA / SELECT port is declared with the
//     right direction (reads need In ports, writes need Out ports; SELECT
//     arms follow the operation in their body, defaulting to In);
//   - variables are declared before use and not redeclared;
//   - scalar destinations receive nitems == 1, array destinations must be
//     at least nitems long;
//   - no item count or array size exceeds petri.MaxTokens: an item count
//     becomes an arc weight, and a token count is four bytes.
func Check(p *Process) error {
	c := &checker{
		proc:   p,
		arrays: map[string]int{},
		vars:   map[string]bool{},
	}
	return c.stmt(p.Body)
}

type checker struct {
	proc   *Process
	arrays map[string]int // array name -> size
	vars   map[string]bool
}

func (c *checker) declare(v VarDecl) error {
	if c.vars[v.Name] {
		return fmt.Errorf("%v: variable %s redeclared", v.Pos, v.Name)
	}
	if c.proc.PortByName(v.Name) != nil {
		return fmt.Errorf("%v: variable %s shadows a port", v.Pos, v.Name)
	}
	c.vars[v.Name] = true
	if err := count("array size", v.ArraySize, v.Pos); err != nil {
		return err
	}
	if v.ArraySize > 0 {
		c.arrays[v.Name] = v.ArraySize
	}
	return nil
}

// count rejects an item count or array size above petri.MaxTokens.
func count(what string, n int, pos Pos) error {
	if n > petri.MaxTokens {
		return fmt.Errorf("%v: %s %d above %d", pos, what, n, petri.MaxTokens)
	}
	return nil
}

func (c *checker) port(name string, dir PortDir, pos Pos) error {
	pd := c.proc.PortByName(name)
	if pd == nil {
		return fmt.Errorf("%v: undeclared port %s in process %s", pos, name, c.proc.Name)
	}
	if pd.Dir != dir {
		return fmt.Errorf("%v: port %s is %v, used as %v", pos, name, pd.Dir, dir)
	}
	return nil
}

func (c *checker) stmt(s Stmt) error {
	switch x := s.(type) {
	case nil:
		return nil
	case *DeclStmt:
		for _, v := range x.Vars {
			if v.Init != nil {
				if err := c.expr(v.Init); err != nil {
					return err
				}
			}
			if err := c.declare(v); err != nil {
				return err
			}
		}
	case *ExprStmt:
		return c.expr(x.X)
	case *Block:
		for _, st := range x.Stmts {
			if err := c.stmt(st); err != nil {
				return err
			}
		}
	case *If:
		if err := c.expr(x.Cond); err != nil {
			return err
		}
		if err := c.stmt(x.Then); err != nil {
			return err
		}
		return c.stmt(x.Else)
	case *While:
		if err := c.expr(x.Cond); err != nil {
			return err
		}
		return c.stmt(x.Body)
	case *For:
		if err := c.stmt(x.Init); err != nil {
			return err
		}
		if x.Cond != nil {
			if err := c.expr(x.Cond); err != nil {
				return err
			}
		}
		if x.Post != nil {
			if err := c.expr(x.Post); err != nil {
				return err
			}
		}
		return c.stmt(x.Body)
	case *Read:
		if err := c.port(x.Port, PortIn, x.Pos); err != nil {
			return err
		}
		if err := count("item count", x.NItems, x.Pos); err != nil {
			return err
		}
		if err := c.expr(x.Dest); err != nil {
			return err
		}
		if id, ok := x.Dest.(*Ident); ok {
			if sz, isArr := c.arrays[id.Name]; isArr {
				if sz < x.NItems {
					return fmt.Errorf("%v: array %s (size %d) too small for %d items", x.Pos, id.Name, sz, x.NItems)
				}
			} else if x.NItems != 1 {
				return fmt.Errorf("%v: scalar destination %s requires nitems == 1", x.Pos, id.Name)
			}
		}
	case *Write:
		if err := c.port(x.Port, PortOut, x.Pos); err != nil {
			return err
		}
		if err := count("item count", x.NItems, x.Pos); err != nil {
			return err
		}
		if err := c.expr(x.Src); err != nil {
			return err
		}
		if id, ok := x.Src.(*Ident); ok {
			if sz, isArr := c.arrays[id.Name]; isArr && sz < x.NItems {
				return fmt.Errorf("%v: array %s (size %d) too small for %d items", x.Pos, id.Name, sz, x.NItems)
			}
			if _, isArr := c.arrays[id.Name]; !isArr && x.NItems != 1 {
				return fmt.Errorf("%v: scalar source %s requires nitems == 1", x.Pos, id.Name)
			}
		} else if x.NItems != 1 {
			return fmt.Errorf("%v: non-identifier source requires nitems == 1", x.Pos)
		}
	case *Select:
		for i := range x.Arms {
			a := &x.Arms[i]
			// SELECT can watch both directions; the port must exist.
			if c.proc.PortByName(a.Port) == nil {
				return fmt.Errorf("%v: undeclared port %s in SELECT", a.Pos, a.Port)
			}
			if err := count("item count", a.NItems, a.Pos); err != nil {
				return err
			}
			for _, st := range a.Body {
				if err := c.stmt(st); err != nil {
					return err
				}
			}
		}
	default:
		return fmt.Errorf("flowc: unhandled statement %T", s)
	}
	return nil
}

func (c *checker) expr(e Expr) error {
	switch x := e.(type) {
	case nil:
		return nil
	case *Ident:
		if !c.vars[x.Name] {
			return fmt.Errorf("%v: undeclared variable %s", x.Pos, x.Name)
		}
	case *IntLit:
	case *Binary:
		if err := c.expr(x.L); err != nil {
			return err
		}
		return c.expr(x.R)
	case *Unary:
		return c.expr(x.X)
	case *Assign:
		if err := c.expr(x.LHS); err != nil {
			return err
		}
		return c.expr(x.RHS)
	case *IncDec:
		return c.expr(x.X)
	case *Index:
		if err := c.expr(x.Arr); err != nil {
			return err
		}
		return c.expr(x.Idx)
	default:
		return fmt.Errorf("flowc: unhandled expression %T", e)
	}
	return nil
}

// CheckFile validates every process of a file and checks that process
// names are unique.
func CheckFile(f *File) error {
	seen := map[string]bool{}
	for _, p := range f.Processes {
		if seen[p.Name] {
			return fmt.Errorf("%v: duplicate process name %s", p.Pos, p.Name)
		}
		seen[p.Name] = true
		if err := Check(p); err != nil {
			return err
		}
	}
	return nil
}
