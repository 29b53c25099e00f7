package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/sim"
)

// goldenPFC is the pinned generated C of the PFC task, relative to the
// repository root the benchmark runs from.
const goldenPFC = "internal/apps/testdata/golden/pfc/task_init.c"

// pfcFrames is the fixed frame count of the simulated task run: the
// Table 1 quantity task_kcycles is measured on it.
const pfcFrames = 10

// runPFC is the paper's application: cold core.Synthesize on the PFC
// system, one caller in a closed loop.
func runPFC(b *bench) error {
	golden, err := os.ReadFile(goldenPFC)
	if err != nil {
		return fmt.Errorf("read golden C: %w", err)
	}
	opt := &core.Options{DisableCache: true}
	check := func(r *core.Result, err error) error {
		if err != nil {
			return err
		}
		if got := r.Code["task_init"]; got != string(golden) {
			return fmt.Errorf("task_init C differs from %s (%d bytes, want %d)", goldenPFC, len(got), len(golden))
		}
		return nil
	}

	var setups []setupResult
	var first *core.Result
	for i := 0; i < setupRuns; i++ {
		c0, w0 := cpuSelf(), time.Now()
		r, err := core.Synthesize(apps.PFC, apps.PFCSpec, opt)
		setups = append(setups, setupResult{cpuSelf() - c0, time.Since(w0)})
		b.op(check(r, err))
		if first == nil && err == nil {
			first = r
		}
	}
	b.setups(setups)
	if first == nil {
		return fmt.Errorf("warm-up synthesis failed")
	}

	window := b.opt.window
	if b.tr != nil {
		window /= 2 // the first half untraced, for the tracing overhead
	}
	var samples []sample
	var lat []time.Duration
	corrupt := b.opt.corrupt
	for end := time.Now().Add(window); time.Now().Before(end); {
		m := startMeter(nil)
		r, err := core.Synthesize(apps.PFC, apps.PFCSpec, opt)
		s, wall := m.stop()
		samples = append(samples, s)
		lat = append(lat, wall)
		if corrupt && err == nil {
			r = corruptResult(r)
			corrupt = false
		}
		b.op(check(r, err))
	}
	cpuPerOp := b.reportSamples(samples, false)
	b.note("latency", latencySummary(lat))

	// The generated task against the four-process baseline interpreter,
	// and the paper's Table 1 and Table 2 quantities.
	taskCycles, baseCycles, err := pfcEquivalence(first)
	b.op(err)
	var codeBytes int
	for _, row := range sim.Table2(first) {
		if row.Model == sim.SizePFC.Name {
			codeBytes = row.Task
		}
	}
	b.endToEnd("task_kcycles", "kcycles", float64(taskCycles)/1e3)
	b.endToEnd("task_code_bytes", "bytes", float64(codeBytes))

	if b.tr == nil {
		return nil
	}
	counts := layerCounts{}
	var traced []float64
	corrupt = b.opt.corrupt
	for end := time.Now().Add(window); time.Now().Before(end); {
		c0 := cpuSelf()
		b.tr.beginOp("op")
		out, err := replay(b.tr, counts, apps.PFC, apps.PFCSpec)
		b.tr.end()
		traced = append(traced, ms(cpuSelf()-c0))
		if err == nil {
			if corrupt {
				out.code["task_init"] += "\n"
				corrupt = false
			}
			err = sameCode(first.Code, out.code)
		}
		b.op(err)
	}
	if taskCycles > 0 {
		b.setLayer("sim.task_kcycles", float64(taskCycles)/1e3)
		b.setLayer("sim.task_code_bytes", float64(codeBytes))
		b.setLayer("sim.baseline_kcycles", float64(baseCycles)/1e3)
		b.setLayer("sim.ratio", float64(baseCycles)/float64(taskCycles))
	}
	return b.traceMetrics(counts, cpuPerOp, median(traced))
}

// pfcEquivalence runs the synthesized task and the four-process
// baseline interpreter on the same frames under the pfc cost model and
// requires identical display streams — the paper's "the output was
// exactly the same". It returns both cycle counts; the baseline uses
// Table 1's 100-slot inlined channels.
func pfcEquivalence(r *core.Result) (task, base int64, err error) {
	te, err := sim.NewTaskExec(r.Sys, r.TaskByName("task_init"), sim.PFC)
	if err != nil {
		return 0, 0, err
	}
	bl := sim.NewBaseline(r.Sys, sim.PFC, 100)
	bl.Inline = true
	for f := 0; f < pfcFrames; f++ {
		te.Input("cin").Push(int64(f%8 + 1))
		if err := te.Trigger(int64(f)); err != nil {
			return 0, 0, fmt.Errorf("task frame %d: %w", f, err)
		}
		bl.Input("init").Push(int64(f))
		bl.Input("cin").Push(int64(f%8 + 1))
	}
	base, err = bl.Run()
	if err != nil {
		return 0, 0, fmt.Errorf("baseline: %w", err)
	}
	got, want := te.Output("display").Vals, bl.Output("display").Vals
	if len(want) != pfcFrames*apps.FramePixels || len(got) != len(want) {
		return 0, 0, fmt.Errorf("display streams: task %d pixels, baseline %d, want %d", len(got), len(want), pfcFrames*apps.FramePixels)
	}
	for i := range want {
		if got[i] != want[i] {
			return 0, 0, fmt.Errorf("display pixel %d: task %d, baseline %d", i, got[i], want[i])
		}
	}
	return te.Machine.Cycles, base, nil
}

// corruptResult returns a copy of r whose generated C carries one extra
// byte, for the self-test of the checks.
func corruptResult(r *core.Result) *core.Result {
	c := *r
	c.Code = map[string]string{}
	for k, v := range r.Code {
		c.Code[k] = v + "\n"
	}
	return &c
}
