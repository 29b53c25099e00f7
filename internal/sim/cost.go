package sim

// CostModel assigns cycle costs to the operations of both executors. The
// three presets stand in for the paper's compiler optimization levels
// (Section 8.2): optimization shrinks computation cost faster than
// communication overhead, which is dominated by calls, buffer management
// and the RTOS context switch.
type CostModel struct {
	Name string

	// Computation.
	AluOp  int64 // one arithmetic/comparison operator
	Assign int64 // one store
	Branch int64 // one condition evaluation / branch

	// Communication through a real channel (FIFO managed by the RTOS or
	// communication library).
	CommCall   int64 // fixed per READ_DATA/WRITE_DATA call (function call + checks)
	CommInline int64 // same, when communication primitives are inlined
	CommItem   int64 // per item copied through a channel

	// Intra-task communication after task synthesis: a local array (or
	// plain variable) access.
	LocalItem int64 // per item through a collapsed channel

	// Environment ports (memory-mapped I/O / latched values): paid
	// identically by both implementations.
	EnvCall int64 // fixed per environment port operation
	EnvItem int64 // per item moved to/from the environment

	// Control overhead.
	CtxSwitch int64 // round-robin context switch (baseline)
	Dispatch  int64 // ISR dispatch per environment trigger (task)
	Goto      int64 // inter-segment jump inside the ISR
}

// Preset cost models. Calibration targets the shape of the paper's
// results, not its absolute numbers: communication overhead dominates
// the 4-task version, computation dominates the single task, and higher
// optimization compresses computation more than communication, pushing
// the speedup ratio from 4.2 (pfc) to 5.2 (pfc-O) and 5.1 (pfc-O2) in
// Table 1 as pfcbench -all prints it (cmd/pfcbench/testdata/all.golden).
var (
	// PFC models unoptimized compilation.
	PFC = &CostModel{
		Name:   "pfc",
		AluOp:  4,
		Assign: 4,
		Branch: 5,

		CommCall:   48,
		CommInline: 36,
		CommItem:   14,
		LocalItem:  2,
		EnvCall:    4,
		EnvItem:    4,

		CtxSwitch: 90,
		Dispatch:  20,
		Goto:      2,
	}
	// PFCO models -O.
	PFCO = &CostModel{
		Name:   "pfc-O",
		AluOp:  1,
		Assign: 1,
		Branch: 2,

		CommCall:   26,
		CommInline: 17,
		CommItem:   8,
		LocalItem:  1,
		EnvCall:    2,
		EnvItem:    2,

		CtxSwitch: 80,
		Dispatch:  12,
		Goto:      1,
	}
	// PFCO2 models -O2.
	PFCO2 = &CostModel{
		Name:   "pfc-O2",
		AluOp:  1,
		Assign: 1,
		Branch: 1,

		CommCall:   25,
		CommInline: 16,
		CommItem:   8,
		LocalItem:  1,
		EnvCall:    2,
		EnvItem:    2,

		CtxSwitch: 78,
		Dispatch:  10,
		Goto:      1,
	}
)

// Presets lists the three models in the paper's order.
func Presets() []*CostModel { return []*CostModel{PFC, PFCO, PFCO2} }

// commCall returns the per-call cost honoring the inlining flag.
func (c *CostModel) commCall(inline bool) int64 {
	if inline {
		return c.CommInline
	}
	return c.CommCall
}
