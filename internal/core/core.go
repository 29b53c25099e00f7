// Package core is the end-to-end facade of the synthesis flow: FlowC
// sources + netlist → compiled Petri nets → linked system net →
// quasi-static schedules (one per uncontrollable input) → software tasks
// with generated C code and statically guaranteed channel bounds.
package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/codegen"
	"repro/internal/compile"
	"repro/internal/flowc"
	"repro/internal/link"
	"repro/internal/petri"
	"repro/internal/pool"
	"repro/internal/sched"
)

// Options configures the pipeline.
type Options struct {
	// Sched configures the schedule search (termination condition,
	// heuristics, state budget) and is handed to every search
	// unchanged; nil uses the paper's defaults (irrelevance criterion +
	// T-invariant ordering).
	Sched *sched.Options
	// Workers bounds the number of concurrent per-source schedule
	// searches. 0 uses GOMAXPROCS; 1 runs them one at a time on one
	// pool worker. Every search is deterministic and independent of the
	// others, so the result is byte-identical regardless of Workers.
	// This pool is the only concurrency: each search itself runs
	// serially on its pool goroutine. A custom Sched.Term or
	// Sched.Order is shared across searches and must be safe for
	// concurrent use when Workers > 1; the defaults are built fresh per
	// search and always are.
	Workers int
	// DisableCache is ignored.
	//
	// Deprecated: core keeps no cache; every call runs the whole flow.
	// The resident server caches its replies itself. The field stays
	// only because the repository benchmark (qssbench) still sets it;
	// it goes when that benchmark is next updated.
	DisableCache bool
}

// Result is the outcome of the full flow.
type Result struct {
	File      *flowc.File
	Procs     []*compile.CompiledProcess
	Sys       *link.System
	Schedules []*sched.Schedule
	Tasks     []*codegen.Task
	// Code maps task names to generated C source.
	Code map[string]string
	// Bounds are the per-place token bounds over all schedules; for
	// channel places this is the statically guaranteed buffer size.
	Bounds []int
	// SharedChannels lists channel place IDs used by more than one task.
	SharedChannels map[int]bool
}

// TaskByName returns a generated task, or nil.
func (r *Result) TaskByName(name string) *codegen.Task {
	for _, t := range r.Tasks {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// ChannelBound returns the statically guaranteed buffer size of a
// channel, by name.
func (r *Result) ChannelBound(name string) int {
	for _, ch := range r.Sys.Channels {
		if ch.Spec.Name == name {
			return r.Bounds[ch.Place.ID]
		}
	}
	return -1
}

// Synthesize runs the full flow on FlowC source text and a netlist in
// the textual system format.
func Synthesize(flowcSrc, specSrc string, opt *Options) (*Result, error) {
	return SynthesizeContext(context.Background(), flowcSrc, specSrc, opt)
}

// SynthesizeContext is Synthesize with cancellation: the schedule
// searches stop dispatching as soon as ctx is done, and a context that
// ends before they finish fails the call. Core keeps no state between
// calls: each one runs the whole flow and returns a Result of its own.
func SynthesizeContext(ctx context.Context, flowcSrc, specSrc string, opt *Options) (*Result, error) {
	if opt == nil {
		opt = &Options{}
	}
	f, spec, err := parse(flowcSrc, specSrc)
	if err != nil {
		return nil, err
	}
	return synthesizeSystem(ctx, f, spec, opt)
}

// SystemNet parses, checks, compiles and links the sources and returns
// the linked system net without running the schedule search — the front
// half of the flow, for callers that only need the net itself (the
// corpus PNML exporter, structural analyses).
func SystemNet(flowcSrc, specSrc string) (*petri.Net, error) {
	f, spec, err := parse(flowcSrc, specSrc)
	if err != nil {
		return nil, err
	}
	_, sys, err := linkSystem(f, spec)
	if err != nil {
		return nil, err
	}
	return sys.Net, nil
}

// parse parses the FlowC sources and the netlist.
func parse(flowcSrc, specSrc string) (*flowc.File, *link.Spec, error) {
	f, err := flowc.ParseFile(flowcSrc)
	if err != nil {
		return nil, nil, fmt.Errorf("core: parse FlowC: %w", err)
	}
	spec, err := link.ParseSpec(strings.NewReader(specSrc))
	if err != nil {
		return nil, nil, fmt.Errorf("core: parse netlist: %w", err)
	}
	return f, spec, nil
}

// linkSystem checks and compiles every process of f and links them
// under spec into the system net.
func linkSystem(f *flowc.File, spec *link.Spec) ([]*compile.CompiledProcess, *link.System, error) {
	if err := flowc.CheckFile(f); err != nil {
		return nil, nil, fmt.Errorf("core: check: %w", err)
	}
	procs := make([]*compile.CompiledProcess, 0, len(f.Processes))
	for _, p := range f.Processes {
		cp, err := compile.CompileProcess(p)
		if err != nil {
			return nil, nil, fmt.Errorf("core: compile: %w", err)
		}
		procs = append(procs, cp)
	}
	sys, err := link.Link(procs, spec)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	return procs, sys, nil
}

// synthesizeSystem runs the flow on parsed inputs with cancellation.
// The per-source schedule searches run on a bounded worker pool (see
// Options.Workers); the first search error cancels the remaining work.
// Independence of the schedule set is always verified: Prop. 4.3 makes
// it redundant for FlowC-derived UCPNs, but SELECT voids the guarantee.
func synthesizeSystem(ctx context.Context, f *flowc.File, spec *link.Spec, opt *Options) (*Result, error) {
	procs, sys, err := linkSystem(f, spec)
	if err != nil {
		return nil, err
	}
	res := &Result{File: f, Procs: procs, Sys: sys, Code: map[string]string{}}

	sources := sys.Net.UncontrollableSources()
	if len(sources) == 0 {
		return nil, fmt.Errorf("core: system %s has no uncontrollable inputs; nothing triggers a task", spec.Name)
	}
	res.Schedules, err = findSchedules(ctx, sys.Net, sources, opt)
	if err != nil {
		return nil, err
	}
	if err := sched.CheckIndependence(res.Schedules); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	res.Bounds = sched.CombinedPlaceBounds(res.Schedules)
	res.SharedChannels = sharedChannels(sys, res.Schedules)

	for _, s := range res.Schedules {
		name := "task_" + sys.Net.Transitions[s.Source].Name
		task, err := codegen.Generate(s, name)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		res.Tasks = append(res.Tasks, task)
		res.Code[name] = codegen.Synthesize(task, &codegen.SynthOptions{
			Sys:            sys,
			SharedChannels: res.SharedChannels,
		})
	}
	return res, nil
}

// findSchedules runs one schedule search per uncontrollable source on a
// bounded worker pool. Results are ordered by source index regardless of
// completion order; the first error cancels the dispatch of pending
// searches, and the lowest-index error is reported for determinism. A
// context that ends, even during the last search, fails the call. A
// search that panics is re-panicked on the caller's goroutine once the
// pool has drained, so the caller's recovery sees it.
func findSchedules(ctx context.Context, n *petri.Net, sources []int, opt *Options) ([]*sched.Schedule, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]*sched.Schedule, len(sources))
	errs := make([]error, len(sources))
	panics := make([]any, len(sources))
	pool.Run(ctx, len(sources), workers, func(i int, cancel context.CancelFunc) {
		defer func() {
			if v := recover(); v != nil {
				panics[i] = fmt.Sprintf("core: schedule search for %s panicked: %v\n\n%s",
					n.Transitions[sources[i]].Name, v, debug.Stack())
				cancel()
			}
		}()
		s, err := sched.FindSchedule(n, sources[i], opt.Sched)
		if err != nil {
			errs[i] = err
			cancel() // first error: stop dispatching pending searches
			return
		}
		out[i] = s
	})
	for _, v := range panics {
		if v != nil {
			panic(v)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return out, nil
}

// sharedChannels finds channel places touched (with token flow) by more
// than one schedule; those must remain real inter-task channels.
func sharedChannels(sys *link.System, set []*sched.Schedule) map[int]bool {
	out := map[int]bool{}
	if len(set) < 2 {
		return out
	}
	users := map[int]int{}
	var ds []petri.PlaceDelta
	for _, s := range set {
		seen := map[int]bool{}
		for _, tid := range s.InvolvedTransitions() {
			ds = sys.Net.Transitions[tid].AppendDeltas(ds[:0])
			for _, d := range ds {
				if p := int(d.Place); sys.Net.Places[p].Kind == petri.PlaceChannel && !seen[p] {
					seen[p] = true
					users[p]++
				}
			}
		}
	}
	for p, n := range users {
		if n > 1 {
			out[p] = true
		}
	}
	return out
}
