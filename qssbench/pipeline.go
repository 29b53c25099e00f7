package main

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/codegen"
	"repro/internal/compile"
	"repro/internal/flowc"
	"repro/internal/link"
	"repro/internal/petri"
	"repro/internal/sched"
)

// replayOut is what a replayed synthesis produced.
type replayOut struct {
	sys  *link.System
	code map[string]string
}

// replay runs one synthesis through the layers' public functions in the
// order core.SynthesizeCachedContext calls them, with a span around each
// call and counts recorded at the boundaries. The searches run one
// after another, each with the sched options core would resolve for the
// system; determinism makes the schedules, and so the C, byte-identical
// to core's, which the callers check.
func replay(t *tracer, c layerCounts, flowcSrc, specSrc string) (*replayOut, error) {
	c["flowc.src_kb"] += float64(len(flowcSrc)) / 1e3
	t.begin("flowc.ParseFile")
	f, err := flowc.ParseFile(flowcSrc)
	t.end()
	if err != nil {
		return nil, err
	}
	t.begin("link.ParseSpec")
	spec, err := link.ParseSpec(strings.NewReader(specSrc))
	t.end()
	if err != nil {
		return nil, err
	}
	t.begin("flowc.CheckFile")
	err = flowc.CheckFile(f)
	t.end()
	if err != nil {
		return nil, err
	}
	var procs []*compile.CompiledProcess
	for _, p := range f.Processes {
		t.begin("compile.CompileProcess")
		cp, err := compile.CompileProcess(p)
		t.end()
		if err != nil {
			return nil, err
		}
		c["compile.transitions"] += float64(len(cp.Net.Transitions))
		procs = append(procs, cp)
	}
	t.begin("link.Link")
	sys, err := link.Link(procs, spec)
	t.end()
	if err != nil {
		return nil, err
	}
	c["link.places"] += float64(len(sys.Net.Places))
	c["link.transitions"] += float64(len(sys.Net.Transitions))

	sources := sys.Net.UncontrollableSources()
	so := coreSchedOptions(len(sources))
	var set []*sched.Schedule
	for _, src := range sources {
		a0, _ := heapAllocs()
		t.begin("sched.FindSchedule")
		s, err := sched.FindSchedule(sys.Net, src, so)
		t.end()
		if err != nil {
			return nil, err
		}
		a1, _ := heapAllocs()
		c["sched.alloc_mb"] += float64(a1-a0) / 1e6
		c["sched.searches"]++
		c["sched.states"] += float64(s.Stats.NodesCreated)
		c["_sched.kept"] += float64(s.Stats.NodesKept)
		c["_sched.pruned"] += float64(s.Stats.Pruned)
		c["sched.store_hot_mb"] += float64(s.Stats.StoreHotBytes) / 1e6
		set = append(set, s)
	}
	t.begin("sched.CheckIndependence")
	err = sched.CheckIndependence(set)
	t.end()
	if err != nil {
		return nil, err
	}
	t.begin("sched.CombinedPlaceBounds")
	sched.CombinedPlaceBounds(set)
	t.end()
	shared := sharedChannels(sys, set)
	out := &replayOut{sys: sys, code: map[string]string{}}
	for _, s := range set {
		name := "task_" + sys.Net.Transitions[s.Source].Name
		t.begin("codegen.Generate")
		task, err := codegen.Generate(s, name)
		t.end()
		if err != nil {
			return nil, err
		}
		t.begin("codegen.Synthesize")
		code := codegen.Synthesize(task, &codegen.SynthOptions{Sys: sys, SharedChannels: shared})
		t.end()
		c["codegen.segments"] += float64(len(task.Segments))
		c["codegen.c_kb"] += float64(len(code)) / 1e3
		out.code[name] = code
	}
	return out, nil
}

// coreSchedOptions resolves the sched options core.Synthesize uses for
// a system with the given number of uncontrollable sources under
// default core.Options: up to GOMAXPROCS concurrent searches share the
// cores, and each search gets the rest as frontier workers.
func coreSchedOptions(sources int) *sched.Options {
	procs := runtime.GOMAXPROCS(0)
	workers := min(procs, sources)
	if ew := procs / max(workers, 1); ew > 1 {
		return &sched.Options{ExploreWorkers: ew}
	}
	return nil
}

// sharedChannels restates core's unexported rule: a channel place that
// more than one schedule moves tokens through stays a real inter-task
// channel.
func sharedChannels(sys *link.System, set []*sched.Schedule) map[int]bool {
	out := map[int]bool{}
	if len(set) < 2 {
		return out
	}
	users := map[int]int{}
	for _, s := range set {
		seen := map[int]bool{}
		touch := func(pid int) {
			if sys.Net.Places[pid].Kind == petri.PlaceChannel && !seen[pid] {
				seen[pid] = true
				users[pid]++
			}
		}
		for _, tid := range s.InvolvedTransitions() {
			t := sys.Net.Transitions[tid]
			for _, a := range t.In {
				if t.OutWeight(a.Place) != a.Weight {
					touch(a.Place)
				}
			}
			for _, a := range t.Out {
				if t.Weight(a.Place) != a.Weight {
					touch(a.Place)
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

// frontHalf parses, checks, compiles and links a system without timing
// it: the service checks need the linked system to simulate.
func frontHalf(flowcSrc, specSrc string) (*link.System, error) {
	f, err := flowc.ParseFile(flowcSrc)
	if err != nil {
		return nil, err
	}
	spec, err := link.ParseSpec(strings.NewReader(specSrc))
	if err != nil {
		return nil, err
	}
	if err := flowc.CheckFile(f); err != nil {
		return nil, err
	}
	var procs []*compile.CompiledProcess
	for _, p := range f.Processes {
		cp, err := compile.CompileProcess(p)
		if err != nil {
			return nil, err
		}
		procs = append(procs, cp)
	}
	return link.Link(procs, spec)
}

// sameCode reports the first task whose C differs between two runs.
func sameCode(want, got map[string]string) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d tasks, want %d", len(got), len(want))
	}
	for name, c := range want {
		if got[name] != c {
			return fmt.Errorf("task %s: generated C differs", name)
		}
	}
	return nil
}
