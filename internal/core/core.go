// Package core is the end-to-end facade of the synthesis flow: FlowC
// sources + netlist → compiled Petri nets → linked system net →
// quasi-static schedules (one per uncontrollable input) → software tasks
// with generated C code and statically guaranteed channel bounds.
package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/codegen"
	"repro/internal/compile"
	"repro/internal/dist"
	"repro/internal/flowc"
	"repro/internal/link"
	"repro/internal/petri"
	"repro/internal/pool"
	"repro/internal/sched"
)

// Options configures the pipeline.
type Options struct {
	// Sched configures the schedule search (termination condition,
	// heuristics); nil uses the paper's defaults (irrelevance criterion
	// + T-invariant ordering).
	Sched *sched.Options
	// SkipIndependence disables the independence verification of the
	// schedule set (Prop. 4.3 makes it redundant for FlowC-derived
	// UCPNs, but SELECT voids the guarantee, so the default is to check).
	SkipIndependence bool
	// Workers bounds the number of concurrent per-source schedule
	// searches. 0 uses GOMAXPROCS, 1 forces the serial path. Every
	// search is deterministic and independent of the others, so the
	// result is byte-identical regardless of Workers. This pool is the
	// only in-process concurrency: each search itself runs serially on
	// its pool goroutine. A custom Sched.Term or Sched.Order is shared
	// across searches and must be safe for concurrent use when
	// Workers > 1; the defaults are built fresh per search and always
	// are.
	Workers int
	// DistWorkers > 0 shards each schedule search's frontier
	// exploration across that many worker OS processes (internal/dist).
	// By default the processes are spawned locally by re-executing the
	// current binary, which must call dist.MaybeWorker first thing in
	// main; set DistEndpoint to await externally started cmd/qssd
	// workers instead. The pool lives for one Synthesize call; callers
	// amortizing a pool across many calls pass a pre-connected one via
	// Dist. Schedules and generated code are byte-identical to the
	// in-process search for every process count; the source-level pool
	// is forced serial while a dist pool is active (the pool is a
	// sequential resource).
	DistWorkers int
	// DistEndpoint, with DistWorkers > 0, listens at this endpoint
	// ("unix:/path", "tcp:host:port", or a bare unix-socket path) and
	// waits for DistWorkers externally started workers rather than
	// spawning local ones.
	DistEndpoint string
	// Dist is a pre-connected worker pool (see internal/dist.Pool);
	// when set it takes precedence over DistWorkers/DistEndpoint and
	// its lifecycle belongs to the caller.
	Dist *dist.Pool
	// DistNoFallback makes a distributed-pool failure (worker death
	// with recovery exhausted) fail the Synthesize call instead of
	// transparently rerunning the affected searches in-process. The
	// default (fallback on) prefers a slower correct answer over an
	// infrastructure error: determinism guarantees the local rerun is
	// byte-identical to what the pool would have produced.
	DistNoFallback bool
	// DisableCache bypasses the content-addressed synthesis cache for
	// this call. Only the textual entry points (Synthesize,
	// SynthesizeContext) consult the cache; see cache.go.
	DisableCache bool
	// MaxNodes bounds the states each schedule search may create, a
	// request-scoped budget for callers (such as the resident server)
	// that must stop one huge net from monopolizing the process without
	// importing the sched package. 0 keeps the sched default; an
	// explicit Sched.MaxNodes always wins. The value is part of the
	// cache key — different budgets can legitimately produce different
	// outcomes (ErrBudget vs a schedule).
	MaxNodes int
	// FreezeLevels makes each graph-engine search evict closed BFS
	// levels of its marking store to an on-disk delta segment
	// (sched.Options.FreezeLevels), bounding hot memory on huge nets at
	// the cost of reconstructing cold vectors on later reads. Results
	// are byte-identical either way, so like the worker knobs it is an
	// execution-strategy field, not part of the cache key. A pre-set
	// Sched options struct is copied, never mutated.
	FreezeLevels bool
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
// searches stop dispatching as soon as ctx is done. It is also the
// cached entry point — repeated synthesis of the same sources under the
// same options returns the memoized Result (see cache.go). Cached
// Results are shared; callers must treat them as read-only.
func SynthesizeContext(ctx context.Context, flowcSrc, specSrc string, opt *Options) (*Result, error) {
	r, _, err := SynthesizeCachedContext(ctx, flowcSrc, specSrc, opt)
	return r, err
}

// SynthesizeCachedContext is SynthesizeContext that additionally
// reports whether the Result came out of the content-addressed cache —
// the per-call signal a multiplexing caller (the resident server's hit
// counters and latency accounting) needs, which the process-global
// Stats counters cannot provide under concurrency.
func SynthesizeCachedContext(ctx context.Context, flowcSrc, specSrc string, opt *Options) (*Result, bool, error) {
	if opt == nil {
		opt = &Options{}
	}
	// A cancelled call must fail even on a cache hit, or cancellation
	// would depend on what happens to be cached.
	if err := ctx.Err(); err != nil {
		return nil, false, fmt.Errorf("core: %w", err)
	}
	key, cacheable := cacheKey(flowcSrc, specSrc, opt)
	if cacheable {
		if r, ok := synthCache.get(key); ok {
			return r, true, nil
		}
	}
	f, err := flowc.ParseFile(flowcSrc)
	if err != nil {
		return nil, false, fmt.Errorf("core: parse FlowC: %w", err)
	}
	spec, err := link.ParseSpec(strings.NewReader(specSrc))
	if err != nil {
		return nil, false, fmt.Errorf("core: parse netlist: %w", err)
	}
	res, err := SynthesizeSystemContext(ctx, f, spec, opt)
	if err != nil {
		return nil, false, err
	}
	if cacheable {
		synthCache.put(key, res)
	}
	return res, false, nil
}

// SynthesizeSystem runs the flow on parsed inputs.
func SynthesizeSystem(f *flowc.File, spec *link.Spec, opt *Options) (*Result, error) {
	return SynthesizeSystemContext(context.Background(), f, spec, opt)
}

// SystemNet parses, checks, compiles and links the sources and returns
// the linked system net without running the schedule search — the front
// half of the flow, for callers that only need the net itself (the
// corpus PNML exporter, structural analyses).
func SystemNet(flowcSrc, specSrc string) (*petri.Net, error) {
	f, err := flowc.ParseFile(flowcSrc)
	if err != nil {
		return nil, fmt.Errorf("core: parse FlowC: %w", err)
	}
	spec, err := link.ParseSpec(strings.NewReader(specSrc))
	if err != nil {
		return nil, fmt.Errorf("core: parse netlist: %w", err)
	}
	if err := flowc.CheckFile(f); err != nil {
		return nil, fmt.Errorf("core: check: %w", err)
	}
	procs := make([]*compile.CompiledProcess, 0, len(f.Processes))
	for _, p := range f.Processes {
		cp, err := compile.CompileProcess(p)
		if err != nil {
			return nil, fmt.Errorf("core: compile: %w", err)
		}
		procs = append(procs, cp)
	}
	sys, err := link.Link(procs, spec)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return sys.Net, nil
}

// SynthesizeSystemContext runs the flow on parsed inputs with
// cancellation. The per-source schedule searches run on a bounded
// worker pool (see Options.Workers); the first search error cancels the
// remaining work.
func SynthesizeSystemContext(ctx context.Context, f *flowc.File, spec *link.Spec, opt *Options) (*Result, error) {
	if opt == nil {
		opt = &Options{}
	}
	opt = withMaxNodes(opt)
	opt = withFreezeLevels(opt)
	if err := flowc.CheckFile(f); err != nil {
		return nil, fmt.Errorf("core: check: %w", err)
	}
	res := &Result{File: f, Code: map[string]string{}}
	for _, p := range f.Processes {
		cp, err := compile.CompileProcess(p)
		if err != nil {
			return nil, fmt.Errorf("core: compile: %w", err)
		}
		res.Procs = append(res.Procs, cp)
	}
	sys, err := link.Link(res.Procs, spec)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	res.Sys = sys

	sources := sys.Net.UncontrollableSources()
	if len(sources) == 0 {
		return nil, fmt.Errorf("core: system %s has no uncontrollable inputs; nothing triggers a task", spec.Name)
	}
	distPool, ownPool, err := resolveDistPool(opt)
	if err != nil {
		return nil, err
	}
	if ownPool {
		defer distPool.Close()
	}
	res.Schedules, err = findSchedules(ctx, sys.Net, sources, opt, distPool)
	if err != nil {
		return nil, err
	}
	if !opt.SkipIndependence {
		if err := sched.CheckIndependence(res.Schedules); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
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

// resolveDistPool materializes the distributed-exploration pool the
// options call for: the caller's pre-connected pool, a freshly spawned
// local set of worker processes, or a listener awaiting external
// workers. ownPool reports whether this call owns (and must Close) it.
func resolveDistPool(opt *Options) (p *dist.Pool, ownPool bool, err error) {
	if opt.Dist != nil {
		return opt.Dist, false, nil
	}
	if opt.DistWorkers <= 0 {
		return nil, false, nil
	}
	if opt.DistEndpoint != "" {
		p, err = dist.Listen(opt.DistEndpoint, opt.DistWorkers)
	} else {
		p, err = dist.SpawnLocal(opt.DistWorkers)
	}
	if err != nil {
		return nil, false, fmt.Errorf("core: distributed exploration: %w", err)
	}
	return p, true, nil
}

// findSchedules runs one schedule search per uncontrollable source on a
// bounded worker pool. Results are ordered by source index regardless of
// completion order; the first error cancels the dispatch of pending
// searches, and the lowest-index error is reported for determinism.
func findSchedules(ctx context.Context, n *petri.Net, sources []int, opt *Options, distPool *dist.Pool) ([]*sched.Schedule, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sources) {
		workers = len(sources)
	}
	if distPool != nil {
		// The pool serializes sessions; concurrent searches would only
		// queue on it, so keep the source level serial.
		workers = 1
	}
	schedOpt := opt.Sched
	if distPool != nil {
		so := sched.Options{}
		if schedOpt != nil {
			so = *schedOpt
		}
		so.Dist = distPool
		so.DistFallback = !opt.DistNoFallback
		schedOpt = &so
	}
	out := make([]*sched.Schedule, len(sources))
	if workers <= 1 {
		for i, src := range sources {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			s, err := sched.FindSchedule(n, src, schedOpt)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			out[i] = s
		}
		return out, nil
	}
	// The net's adjacency caches are built lazily and unsynchronized;
	// build them before the read-only fan-out.
	n.Warm()
	errs := make([]error, len(sources))
	pool.Run(ctx, len(sources), workers, func(i int, cancel context.CancelFunc) {
		s, err := sched.FindSchedule(n, sources[i], schedOpt)
		if err != nil {
			errs[i] = err
			cancel() // first error: stop dispatching pending searches
			return
		}
		out[i] = s
	})
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

// withMaxNodes folds a request-scoped Options.MaxNodes budget into the
// sched options, copying rather than mutating the caller's structs. An
// explicit Sched.MaxNodes wins; 0 leaves everything untouched.
func withMaxNodes(opt *Options) *Options {
	if opt.MaxNodes <= 0 || (opt.Sched != nil && opt.Sched.MaxNodes != 0) {
		return opt
	}
	o := *opt
	so := sched.Options{}
	if opt.Sched != nil {
		so = *opt.Sched
	}
	so.MaxNodes = opt.MaxNodes
	o.Sched = &so
	return &o
}

// withFreezeLevels folds Options.FreezeLevels into the sched options,
// copying rather than mutating the caller's structs. A Sched struct
// with the flag already set is left alone.
func withFreezeLevels(opt *Options) *Options {
	if !opt.FreezeLevels || (opt.Sched != nil && opt.Sched.FreezeLevels) {
		return opt
	}
	o := *opt
	so := sched.Options{}
	if opt.Sched != nil {
		so = *opt.Sched
	}
	so.FreezeLevels = true
	o.Sched = &so
	return &o
}

// sharedChannels finds channel places touched (with token flow) by more
// than one schedule; those must remain real inter-task channels.
func sharedChannels(sys *link.System, set []*sched.Schedule) map[int]bool {
	out := map[int]bool{}
	if len(set) < 2 {
		return out
	}
	users := map[int]int{}
	for _, s := range set {
		seen := map[int]bool{}
		for _, tid := range s.InvolvedTransitions() {
			t := sys.Net.Transitions[tid]
			touch := func(pid int) {
				if sys.Net.Places[pid].Kind == petri.PlaceChannel && !seen[pid] {
					seen[pid] = true
					users[pid]++
				}
			}
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
