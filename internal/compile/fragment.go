// Package compile translates FlowC processes into Petri nets following
// Section 3 of the paper: leader analysis partitions the sequential code
// into portions, each portion becomes a transition, data-dependent
// control becomes Equal-Choice places, ports become places, and SELECT
// becomes synchronization-dependent choice realized with read arcs.
//
// CompileProcess is the entry point: one flowc.Process in, one
// CompiledProcess out — the process's Petri net plus the code fragment
// attached to each transition, which is what link stitches into a
// system net and codegen later emits as C. Leader selection
// (leaders.go) follows the Section 3.1 rules; fragment extraction
// (fragment.go) keeps the source text of each portion so the generated
// task reproduces the user's computations verbatim.
package compile

import "repro/internal/flowc"

// Fragment is the payload attached to a transition: the portion of
// sequential code executed when the transition fires. READ_DATA and
// WRITE_DATA statements inside the fragment correspond one-to-one to the
// transition's port arcs.
type Fragment struct {
	Process string
	Stmts   []flowc.Stmt
}

// IsSilent reports whether the fragment carries no code (an ε transition).
func (f *Fragment) IsSilent() bool { return f == nil || len(f.Stmts) == 0 }

// ChoiceKind distinguishes the two kinds of choice place the compiler
// introduces.
type ChoiceKind int

const (
	// ChoiceData is a data-dependent control (if / while / for): the
	// successor transitions form one ECS and carry T/F labels; the
	// schedule must survive either resolution.
	ChoiceData ChoiceKind = iota
	// ChoiceSelect is a SELECT: successors have distinct presets
	// (availability tests) and the scheduler may commit to one.
	ChoiceSelect
)

// ChoiceInfo is the payload attached to a choice place.
type ChoiceInfo struct {
	Kind ChoiceKind
	// Cond is the boolean condition for ChoiceData.
	Cond flowc.Expr
	// Sel is the originating construct for ChoiceSelect; arm order is
	// the run-time priority order.
	Sel *flowc.Select
}

// SelectArmRef records that a transition is the entry of SELECT arm Index
// on the given port requiring NItems (tokens for In ports, free slots for
// Out ports). Out-port arms are fixed up by the linker, which owns the
// complement places of bounded channels.
type SelectArmRef struct {
	Trans  int
	Port   string
	NItems int
	Index  int
}
