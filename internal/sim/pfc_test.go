package sim

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/codegen"
	"repro/internal/core"
)

// pfcResult synthesizes the PFC system once per test binary.
var pfcCache *core.Result

func pfcResult(t testing.TB) *core.Result {
	t.Helper()
	if pfcCache == nil {
		r, err := apps.SynthesizePFC()
		if err != nil {
			t.Fatalf("synthesize pfc: %v", err)
		}
		pfcCache = r
	}
	return pfcCache
}

// runPFCBaseline executes the 4-process implementation for the given
// number of frames and returns (cycles, display stream, switches).
func runPFCBaseline(t testing.TB, frames int, capacity int, cost *CostModel, inline bool) (int64, []int64, int64) {
	t.Helper()
	r := pfcResult(t)
	b := NewBaseline(r.Sys, cost, capacity)
	b.Inline = inline
	for f := 0; f < frames; f++ {
		b.Input("init").Push(int64(f))
		b.Input("cin").Push(int64(f%8 + 1))
	}
	cycles, err := b.Run()
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	return cycles, b.Output("display").Vals, b.Switches
}

// runPFCTask executes the synthesized single task for the given frames.
func runPFCTask(t testing.TB, frames int, cost *CostModel) (int64, []int64) {
	t.Helper()
	r := pfcResult(t)
	te, err := NewTaskExec(r.Sys, r.Tasks[0], cost)
	if err != nil {
		t.Fatalf("new task exec: %v", err)
	}
	for f := 0; f < frames; f++ {
		te.Input("cin").Push(int64(f%8 + 1))
		if err := te.Trigger(int64(f)); err != nil {
			t.Fatalf("trigger %d: %v", f, err)
		}
	}
	return te.Machine.Cycles, te.Output("display").Vals
}

func TestPFCFunctionalEquivalence(t *testing.T) {
	// The paper: "the output was exactly the same" between the four
	// process system and the synthesized task.
	const frames = 5
	_, base, _ := runPFCBaseline(t, frames, 10, PFC, false)
	_, task := runPFCTask(t, frames, PFC)
	if len(base) != len(task) {
		t.Fatalf("output lengths differ: baseline %d, task %d", len(base), len(task))
	}
	if len(base) != frames*apps.FramePixels {
		t.Fatalf("baseline produced %d pixels, want %d", len(base), frames*apps.FramePixels)
	}
	for i := range base {
		if base[i] != task[i] {
			t.Fatalf("output diverges at pixel %d: baseline %d, task %d", i, base[i], task[i])
		}
	}
}

func TestPFCEquivalenceAcrossBufferSizes(t *testing.T) {
	const frames = 3
	_, want := runPFCTask(t, frames, PFC)
	for _, cap := range []int{1, 2, 7, 100} {
		_, got, _ := runPFCBaseline(t, frames, cap, PFC, true)
		if len(got) != len(want) {
			t.Fatalf("cap %d: output length %d, want %d", cap, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cap %d: output diverges at %d", cap, i)
			}
		}
	}
}

func TestPFCPixelValues(t *testing.T) {
	// Frame f with base value f and coefficient c = f%8+1: pixel (i,j)
	// is (i*10 + j + f) * c.
	const frames = 2
	_, task := runPFCTask(t, frames, PFC)
	idx := 0
	for f := 0; f < frames; f++ {
		c := int64(f%8 + 1)
		for i := 0; i < apps.FrameLines; i++ {
			for j := 0; j < apps.LinePixels; j++ {
				want := (int64(i*10+j) + int64(f)) * c
				if task[idx] != want {
					t.Fatalf("frame %d pixel (%d,%d): got %d, want %d", f, i, j, task[idx], want)
				}
				idx++
			}
		}
	}
}

func TestPFCSpeedupShape(t *testing.T) {
	// Table 1 shape: the single task beats the 4-process implementation
	// by roughly 4-5x, and the ratio grows with optimization level.
	const frames = 10
	var ratios []float64
	for _, cost := range Presets() {
		base, _, _ := runPFCBaseline(t, frames, 100, cost, true)
		task, _ := runPFCTask(t, frames, cost)
		if task <= 0 || base <= 0 {
			t.Fatalf("%s: non-positive cycles (base %d, task %d)", cost.Name, base, task)
		}
		ratio := float64(base) / float64(task)
		ratios = append(ratios, ratio)
		t.Logf("%s: baseline %d cycles, task %d cycles, ratio %.2f", cost.Name, base, task, ratio)
		if ratio < 2.5 || ratio > 8 {
			t.Errorf("%s: ratio %.2f outside the paper's 3.9-5.2 neighbourhood", cost.Name, ratio)
		}
	}
	if ratios[1] <= ratios[0] {
		t.Errorf("optimization should increase the speedup ratio (pfc %.2f, pfc-O %.2f)", ratios[0], ratios[1])
	}
}

func TestPFCBaselineBufferSweepShape(t *testing.T) {
	// Figure 20 shape: the 4-task version improves monotonically (mostly)
	// with channel capacity and the single task beats all of them.
	const frames = 10
	task, _ := runPFCTask(t, frames, PFC)
	var prev int64 = 1 << 62
	for _, cap := range []int{1, 2, 5, 10, 20, 50, 100} {
		cycles, _, switches := runPFCBaseline(t, frames, cap, PFC, true)
		t.Logf("cap %3d: %d cycles (%d switches)", cap, cycles, switches)
		if cycles > prev+prev/10 {
			t.Errorf("cap %d: cycles %d noticeably worse than smaller buffer (%d)", cap, cycles, prev)
		}
		if cycles <= task {
			t.Errorf("cap %d: baseline (%d) should not beat the synthesized task (%d)", cap, cycles, task)
		}
		prev = cycles
	}
}

func TestPFCCodeSizeShape(t *testing.T) {
	// Table 2 shape: the single task is several times smaller than the
	// 4-process implementation with inlined communication.
	r := pfcResult(t)
	for _, sm := range SizeModels() {
		total, per := sm.BaselineSize(r.Sys, true)
		task := sm.TaskSize(r.Tasks[0], r.Sys)
		ratio := float64(total) / float64(task)
		t.Logf("%s: task %d bytes, 4 procs %d bytes %v, ratio %.1f", sm.Name, task, total, per, ratio)
		if ratio < 3 || ratio > 15 {
			t.Errorf("%s: size ratio %.1f outside the paper's ~7-9 neighbourhood", sm.Name, ratio)
		}
		// Call-based communication shrinks the baseline: still bigger
		// than the task but by less (paper: ~3x).
		callTotal, _ := sm.BaselineSize(r.Sys, false)
		if callTotal >= total {
			t.Errorf("%s: call-based size %d should be below inlined %d", sm.Name, callTotal, total)
		}
	}
}

func TestTaskIntraBuffersAreUnit(t *testing.T) {
	r := pfcResult(t)
	bounds := r.Tasks[0].IntraChannels(&codegen.SynthOptions{Sys: r.Sys})
	if len(bounds) != len(r.Sys.Channels) {
		t.Fatalf("intra channels = %d, want %d (single task absorbs all)", len(bounds), len(r.Sys.Channels))
	}
	for pid, b := range bounds {
		if b != 1 {
			t.Errorf("channel %s buffer = %d, want 1", r.Sys.Net.Places[pid].Name, b)
		}
	}
}

func TestMultiRateEquivalence(t *testing.T) {
	// Line-based (10 items per WRITE_DATA) pipeline: baseline and task
	// must agree, and the task's Line buffer must hold one full line.
	r, err := apps.SynthesizeMultiRate()
	if err != nil {
		t.Fatalf("synthesize multirate: %v", err)
	}
	triggers := []int64{3, 0, 11}

	b := NewBaseline(r.Sys, PFC, 10)
	b.Input("go").Push(triggers...)
	if _, err := b.Run(); err != nil {
		t.Fatalf("baseline: %v", err)
	}

	te, err := NewTaskExec(r.Sys, r.Tasks[0], PFC)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range triggers {
		if err := te.Trigger(g); err != nil {
			t.Fatalf("trigger %d: %v", g, err)
		}
	}
	want := b.Output("out").Vals
	got := te.Output("out").Vals
	if len(want) != len(triggers)*10 {
		t.Fatalf("baseline produced %d values, want %d", len(want), len(triggers)*10)
	}
	if len(got) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("outputs diverge at %d: %d vs %d", i, got[i], want[i])
		}
	}
	// Spot-check values: trigger g -> (g+j)^2.
	if got[0] != 9 || got[1] != 16 {
		t.Errorf("first line wrong: %v", got[:10])
	}
	// The Line buffer carries a full burst.
	for pid, sz := range r.Tasks[0].IntraChannels(&codegen.SynthOptions{Sys: r.Sys}) {
		if r.Sys.Net.Places[pid].Name == "Line" && sz != 10 {
			t.Errorf("Line buffer = %d, want 10", sz)
		}
	}
}
