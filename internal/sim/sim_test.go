package sim

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/apps"
	"repro/internal/compile"
	"repro/internal/flowc"
	"repro/internal/link"
)

func evalStr(t *testing.T, sc *Scope, expr string) int64 {
	t.Helper()
	p, err := flowc.ParseProcess("PROCESS p () { int tmp_; tmp_ = " + expr + "; }")
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	as := p.Body.Stmts[1].(*flowc.ExprStmt).X.(*flowc.Assign)
	m := NewMachine(PFC)
	v, err := m.Eval(sc, as.RHS)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return v
}

func TestEvalArithmetic(t *testing.T) {
	sc := NewScope()
	sc.Cell("x")[0] = 7
	sc.Cell("y")[0] = -3
	cases := map[string]int64{
		"1 + 2 * 3":        7,
		"(1 + 2) * 3":      9,
		"x % 4":            3,
		"x / 2":            3,
		"-y":               3,
		"!0":               1,
		"!5":               0,
		"x > y":            1,
		"x <= 7 && y != 0": 1,
		"0 || y < 0":       1,
		"x == 7":           1,
		"x >= 8":           0,
	}
	for expr, want := range cases {
		if got := evalStr(t, sc, expr); got != want {
			t.Errorf("%s = %d, want %d", expr, got, want)
		}
	}
}

func TestEvalShortCircuit(t *testing.T) {
	// 0 && (1/0) must not divide by zero.
	sc := NewScope()
	if got := evalStr(t, sc, "0 && 1 / 0"); got != 0 {
		t.Errorf("short circuit && = %d", got)
	}
	if got := evalStr(t, sc, "1 || 1 / 0"); got != 1 {
		t.Errorf("short circuit || = %d", got)
	}
}

func TestEvalErrors(t *testing.T) {
	sc := NewScope()
	sc.Declare("arr", 3)
	m := NewMachine(PFC)
	for _, src := range []string{"1 / 0", "1 % 0", "arr[5]", "arr[0 - 1]"} {
		p, err := flowc.ParseProcess("PROCESS p () { int t_; t_ = " + src + "; }")
		if err != nil {
			t.Fatal(err)
		}
		as := p.Body.Stmts[1].(*flowc.ExprStmt).X.(*flowc.Assign)
		if _, err := m.Eval(sc, as.RHS); err == nil {
			t.Errorf("%s should fail", src)
		}
	}
}

func TestExecPlainControlFlow(t *testing.T) {
	src := `PROCESS p () {
  int i, sum, arr[5];
  for (i = 0; i < 5; i++)
    arr[i] = i * i;
  sum = 0;
  i = 0;
  while (i < 5) {
    if (arr[i] % 2 == 0)
      sum += arr[i];
    else
      sum -= arr[i];
    i++;
  }
}`
	p, err := flowc.ParseProcess(src)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScope()
	m := NewMachine(PFC)
	for _, s := range p.Body.Stmts {
		if err := m.Exec(sc, s, nil); err != nil {
			t.Fatal(err)
		}
	}
	// 0 +? arr = [0 1 4 9 16]: evens 0,4,16 add; odds 1,9 subtract = 10.
	if got := sc.Get("sum"); got != 10 {
		t.Errorf("sum = %d, want 10", got)
	}
	if m.Cycles <= 0 {
		t.Error("execution should charge cycles")
	}
	// Without a port, a port operation is an error.
	if err := m.Exec(sc, &flowc.Read{Port: "in", Dest: &flowc.Ident{Name: "sum"}, NItems: 1}, nil); err == nil {
		t.Error("READ_DATA without a port should fail")
	}
}

func TestIncDecSemantics(t *testing.T) {
	src := `PROCESS p () { int a, b, c; a = 5; b = a++; c = ++a; }`
	p, err := flowc.ParseProcess(src)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScope()
	m := NewMachine(PFC)
	for _, s := range p.Body.Stmts {
		if err := m.Exec(sc, s, nil); err != nil {
			t.Fatal(err)
		}
	}
	if sc.Get("b") != 5 || sc.Get("c") != 7 || sc.Get("a") != 7 {
		t.Errorf("a=%d b=%d c=%d, want 7 5 7", sc.Get("a"), sc.Get("b"), sc.Get("c"))
	}
}

func TestStepBudget(t *testing.T) {
	p, err := flowc.ParseProcess(`PROCESS p () { int i; while (1) i++; }`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(PFC)
	m.MaxSteps = 1000
	err = m.Exec(NewScope(), p.Body.Stmts[1], nil)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("infinite loop should exhaust the budget, got %v", err)
	}
}

// TestEvalMatchesGo (property): the interpreter agrees with Go on random
// arithmetic over +, -, *.
func TestEvalMatchesGo(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := int64(rng.Intn(100)-50), int64(rng.Intn(100)-50), int64(rng.Intn(50)+1)
		sc := NewScope()
		sc.Cell("a")[0] = a
		sc.Cell("b")[0] = b
		sc.Cell("c")[0] = c
		got := evalStr(t, sc, "a * b + a - b % c")
		return got == a*b+a-b%c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChannelFIFO(t *testing.T) {
	ch := NewChannel("c", 3)
	if !ch.CanWrite(3) || ch.CanWrite(4) {
		t.Error("capacity accounting wrong")
	}
	if err := ch.Write([]int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := ch.Write([]int64{3}); err != nil {
		t.Fatal(err)
	}
	if err := ch.Write([]int64{4}); err == nil {
		t.Error("overfull write should fail")
	}
	got := make([]int64, 2)
	if err := ch.ReadInto(got, 2); err != nil || got[0] != 1 || got[1] != 2 {
		t.Errorf("ReadInto = %v (%v)", got, err)
	}
	if err := ch.ReadInto(got, 2); err == nil {
		t.Error("underfull read should fail")
	}
	if ch.MaxOccupancy != 3 || ch.ItemsMoved != 5 {
		t.Errorf("stats: max=%d moved=%d", ch.MaxOccupancy, ch.ItemsMoved)
	}
	unbounded := NewChannel("u", 0)
	if !unbounded.CanWrite(1 << 20) {
		t.Error("unbounded channel should always accept")
	}
}

func TestInputOutputStreams(t *testing.T) {
	in := NewInputStream("i", 1, 2, 3)
	got, err := in.Pop(2)
	if err != nil || got[0] != 1 || got[1] != 2 {
		t.Errorf("Pop = %v (%v)", got, err)
	}
	in.Push(4)
	if in.Len() != 2 {
		t.Errorf("Len = %d", in.Len())
	}
	if _, err := in.Pop(3); err == nil {
		t.Error("over-pop should fail")
	}
	var out OutputStream
	out.Append(9, 8)
	if len(out.Vals) != 2 {
		t.Errorf("output = %v", out.Vals)
	}
}

func TestBaselineBlockedStats(t *testing.T) {
	// With capacity 1 the producer must block repeatedly.
	r := pfcResult(t)
	b := NewBaseline(r.Sys, PFC, 1)
	b.Input("init").Push(0)
	b.Input("cin").Push(1)
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	pix := b.Channels["Pix"]
	if pix.BlockedWrites == 0 {
		t.Error("capacity-1 run should record blocked writes")
	}
	if pix.MaxOccupancy > 1 {
		t.Errorf("capacity 1 exceeded: %d", pix.MaxOccupancy)
	}
	if b.Switches == 0 {
		t.Error("round-robin should context switch")
	}
}

func TestBaselineHonorsDeclaredBound(t *testing.T) {
	// A channel with a declared bound is capped even when the sweep
	// capacity is larger.
	r := pfcResult(t)
	b := NewBaseline(r.Sys, PFC, 100)
	b.CapacityOf = map[string]int{"Pix": 2}
	b.Input("init").Push(0)
	b.Input("cin").Push(1)
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if got := b.Channels["Pix"].MaxOccupancy; got > 2 {
		t.Errorf("Pix occupancy %d exceeds override 2", got)
	}
}

// settleGoroutines waits up to a second for the goroutine count to fall
// to want and returns the last count it saw.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBaselineRunLeavesNoGoroutines(t *testing.T) {
	r := pfcResult(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		b := NewBaseline(r.Sys, PFC, 2)
		b.Input("init").Push(int64(i))
		b.Input("cin").Push(1)
		if _, err := b.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if after := settleGoroutines(before); after > before {
		t.Errorf("goroutines: %d before 20 runs, %d after", before, after)
	}
}

// linkSources parses, compiles and links a system without scheduling
// it, for baseline runs of systems synthesis would reject.
func linkSources(t *testing.T, flowcSrc, specSrc string) *link.System {
	t.Helper()
	f, err := flowc.ParseFile(flowcSrc)
	if err != nil {
		t.Fatal(err)
	}
	var procs []*compile.CompiledProcess
	for _, p := range f.Processes {
		cp, err := compile.CompileProcess(p)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, cp)
	}
	spec, err := link.ParseSpec(strings.NewReader(specSrc))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := link.Link(procs, spec)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestBaselineStopsOnStartupFailure: the first process divides by zero
// at startup, before the second, which never blocks, has run. Run
// returns the error, and the second process never starts: the cycle
// count and the output stay as Run left them.
func TestBaselineStopsOnStartupFailure(t *testing.T) {
	sys := linkSources(t, `
PROCESS failer (In DPORT x) {
  int d, z;
  d = 0;
  z = 1 / d;
  while (1) {
    READ_DATA(x, &z, 1);
  }
}

PROCESS spinner (Out DPORT y) {
  int i;
  i = 0;
  while (1) {
    WRITE_DATA(y, i, 1);
    i++;
  }
}
`, `
system failing
input x -> failer.x uncontrollable
output spinner.y -> y
`)
	before := runtime.NumGoroutine()
	b := NewBaseline(sys, PFC, 1)
	b.Input("x").Push(1)
	cycles, err := b.Run()
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("Run = %v, want a division by zero", err)
	}
	if cycles != b.Machine.Cycles {
		t.Errorf("Run returned %d cycles, machine reads %d", cycles, b.Machine.Cycles)
	}
	out := len(b.Output("y").Vals)
	if after := settleGoroutines(before); after > before {
		t.Errorf("goroutines: %d before Run, %d after", before, after)
	}
	if b.Machine.Cycles != cycles || len(b.Output("y").Vals) != out {
		t.Errorf("after Run: cycles %d -> %d, output %d -> %d items",
			cycles, b.Machine.Cycles, out, len(b.Output("y").Vals))
	}
}

// TestBaselineProcessPanic: a panic inside a process comes back as
// Run's error naming the process.
func TestBaselineProcessPanic(t *testing.T) {
	r := pfcResult(t)
	b := NewBaseline(r.Sys, PFC, 2)
	b.Channels["Pix"] = nil // the producer's first write dereferences it
	b.Input("init").Push(0)
	b.Input("cin").Push(1)
	_, err := b.Run()
	if err == nil || !strings.Contains(err.Error(), "process producer panicked") {
		t.Fatalf("Run = %v, want the producer's panic", err)
	}
}

// TestStepBudgetPerResume: MaxSteps bounds the work between two yields,
// not a whole run. Ten PFC frames execute about 15,000 statements in the
// baseline and 7,000 in the task, both past a budget of 5,000 that no
// single resume or trigger comes near.
func TestStepBudgetPerResume(t *testing.T) {
	r := pfcResult(t)
	const frames, budget = 10, 5000
	b := NewBaseline(r.Sys, PFC, 1)
	b.Machine.MaxSteps = budget
	Workload{Frames: frames}.feed(b)
	if _, err := b.Run(); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if got, want := len(b.Output("display").Vals), frames*apps.FramePixels; got != want {
		t.Errorf("baseline displayed %d pixels, want %d", got, want)
	}
	te, err := NewTaskExec(r.Sys, r.Tasks[0], PFC)
	if err != nil {
		t.Fatal(err)
	}
	te.Machine.MaxSteps = budget
	for f := 0; f < frames; f++ {
		te.Input("cin").Push(int64(f%8 + 1))
		if err := te.Trigger(int64(f)); err != nil {
			t.Fatalf("task, trigger %d: %v", f, err)
		}
	}
}

// TestBaselineProcessWithoutPortOps: a process whose whole body is its
// startup code has an empty cyclic body. It never yields, so Run ends
// with the statement budget error instead of spinning.
func TestBaselineProcessWithoutPortOps(t *testing.T) {
	sys := linkSources(t, `
PROCESS echo (In DPORT x, Out DPORT y) {
  int v;
  while (1) {
    READ_DATA(x, &v, 1);
    WRITE_DATA(y, v, 1);
  }
}

PROCESS idle () {
  int a;
  a = 1;
}
`, `
system idling
input x -> echo.x uncontrollable
output echo.y -> y
`)
	b := NewBaseline(sys, PFC, 1)
	b.Machine.MaxSteps = 1000
	b.Input("x").Push(7)
	done := make(chan error, 1)
	go func() {
		_, err := b.Run()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "budget") {
			t.Fatalf("Run = %v, want the statement budget error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run still spinning after 10 s")
	}
}

func TestTaskTriggerAtNonAwaitFails(t *testing.T) {
	r := pfcResult(t)
	te, err := NewTaskExec(r.Sys, r.Tasks[0], PFC)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: move the cursor off an await node is not directly
	// possible from outside; instead check the error path for a trigger
	// without the controllable coefficient available.
	if err := te.Trigger(0); err == nil {
		t.Error("trigger without a queued coefficient should fail (controllable read)")
	}
}

func TestCostPresetsOrdered(t *testing.T) {
	// Optimization shrinks every cost component (weakly).
	for _, pair := range [][2]*CostModel{{PFC, PFCO}, {PFCO, PFCO2}} {
		hi, lo := pair[0], pair[1]
		if lo.AluOp > hi.AluOp || lo.CommCall > hi.CommCall || lo.CtxSwitch > hi.CtxSwitch {
			t.Errorf("%s should not cost more than %s", lo.Name, hi.Name)
		}
	}
	if got := PFC.commCall(true); got != PFC.CommInline {
		t.Errorf("commCall(inline) = %d", got)
	}
	if got := PFC.commCall(false); got != PFC.CommCall {
		t.Errorf("commCall(call) = %d", got)
	}
}
