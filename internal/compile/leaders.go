package compile

import "repro/internal/flowc"

// Leader analysis (Section 3.1 of the paper). A statement is a leader if:
//
//  1. it is the first statement of the process;
//  2. it is a READ_DATA statement;
//  3. it immediately follows a WRITE_DATA statement;
//  4. it is the first statement of a control-flow statement that
//     contains a leader;
//  5. it immediately follows a control-flow statement that contains a
//     leader.
//
// Every portion of code consists of a leader and all statements up to the
// next leader; each portion compiles to one transition.

// containsPortOp reports whether the statement (recursively) performs any
// port operation — the condition under which control flow must be
// represented explicitly in the Petri net.
func containsPortOp(s flowc.Stmt) bool {
	switch x := s.(type) {
	case nil:
		return false
	case *flowc.Read, *flowc.Write, *flowc.Select:
		return true
	case *flowc.Block:
		for _, st := range x.Stmts {
			if containsPortOp(st) {
				return true
			}
		}
	case *flowc.If:
		return containsPortOp(x.Then) || containsPortOp(x.Else)
	case *flowc.While:
		return containsPortOp(x.Body)
	case *flowc.For:
		return containsPortOp(x.Body) || containsPortOp(x.Init)
	}
	return false
}

// initPrefix splits a process body into its initialization prefix —
// the declarations and port-free statements before the first port
// operation, which run once at startup — and the cyclic statements
// after it. The paper schedules cyclic behaviour only (its footnote 1).
func initPrefix(stmts []flowc.Stmt) (prefix, cyclic []flowc.Stmt) {
	n := 0
	for n < len(stmts) && !containsPortOp(stmts[n]) {
		n++
	}
	return stmts[:n], stmts[n:]
}

// Leaders computes the set of leader statements of a process body,
// returned in source order. It mirrors the builder's implicit
// partitioning and exists so tests can check the paper's example
// (Figure 1: lines 4, 9, 11 and 13 are the leaders).
func Leaders(p *flowc.Process) []flowc.Stmt {
	var out []flowc.Stmt
	mark := map[flowc.Stmt]bool{}
	var walk func(stmts []flowc.Stmt, firstIsLeader bool)
	walk = func(stmts []flowc.Stmt, firstIsLeader bool) {
		prevForcesLeader := firstIsLeader
		for _, s := range stmts {
			isLeader := prevForcesLeader
			if _, ok := s.(*flowc.Read); ok {
				isLeader = true // rule 2
			}
			// Control statements containing port operations dissolve
			// into net structure; the leaders are the first statements
			// of their branches (rule 4), not the headers themselves.
			// This matches the paper's enumeration for Figure 1.
			if isControl(s) && containsPortOp(s) {
				isLeader = false
			}
			if isLeader && !mark[s] {
				mark[s] = true
				out = append(out, s)
			}
			prevForcesLeader = false
			switch x := s.(type) {
			case *flowc.Write:
				prevForcesLeader = true // rule 3
			case *flowc.If:
				if containsPortOp(s) {
					walk(toList(x.Then), true) // rule 4
					walk(toList(x.Else), true)
					prevForcesLeader = true // rule 5
				}
			case *flowc.While:
				if containsPortOp(s) {
					walk(toList(x.Body), true) // rule 4
					prevForcesLeader = true    // rule 5
				}
			case *flowc.For:
				if containsPortOp(s) {
					walk(toList(x.Body), true) // rule 4
					prevForcesLeader = true    // rule 5
				}
			case *flowc.Select:
				for _, arm := range x.Arms {
					walk(arm.Body, true)
				}
				prevForcesLeader = true
			case *flowc.Block:
				walk(x.Stmts, isLeader)
			}
		}
	}
	// The initialization prefix is not part of the cyclic code, so rule
	// 1 applies to the first scheduled statement.
	_, cyclic := initPrefix(p.Body.Stmts)
	walk(cyclic, true) // rule 1
	return out
}

func toList(s flowc.Stmt) []flowc.Stmt {
	switch x := s.(type) {
	case nil:
		return nil
	case *flowc.Block:
		return x.Stmts
	default:
		return []flowc.Stmt{s}
	}
}

// isControl reports whether the statement is a control-flow construct.
func isControl(s flowc.Stmt) bool {
	switch s.(type) {
	case *flowc.If, *flowc.While, *flowc.For, *flowc.Select, *flowc.Block:
		return true
	}
	return false
}
