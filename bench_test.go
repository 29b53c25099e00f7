package repro

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (Section 8), plus ablations of the design choices: the
// graph engine, whose completeness the internal/sched package doc
// argues, and the T-invariant ordering. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute cycle counts come from the calibrated cost models in
// internal/sim; the claims under test are the shapes: who wins, by what
// factor, and where the curves bend.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/petri"
	"repro/internal/sched"
	"repro/internal/sim"
)

var (
	pfcOnce sync.Once
	pfcRes  *core.Result
	pfcErr  error
)

func pfcSynth(b *testing.B) *core.Result {
	b.Helper()
	pfcOnce.Do(func() {
		pfcRes, pfcErr = apps.SynthesizePFC()
	})
	if pfcErr != nil {
		b.Fatalf("synthesize pfc: %v", pfcErr)
	}
	return pfcRes
}

var printOnce sync.Once

// BenchmarkFigure20 regenerates Figure 20: execution time of the 4-task
// implementation vs channel buffer size under the three compiler-option
// cost models, with the single-task points (row "task").
func BenchmarkFigure20(b *testing.B) {
	r := pfcSynth(b)
	caps := []int{1, 2, 5, 10, 20, 50, 100}
	var pts []sim.Fig20Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = sim.Figure20(r, 10, caps)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce.Do(func() {
		sim.PrintFigure20(os.Stdout, pts)
	})
	// Shape assertions: monotone improvement with capacity; task wins.
	byModel := map[string][]sim.Fig20Point{}
	for _, p := range pts {
		byModel[p.Model] = append(byModel[p.Model], p)
	}
	for model, series := range byModel {
		var taskCycles int64
		for _, p := range series {
			if p.Capacity == 0 {
				taskCycles = p.Cycles
			}
		}
		for _, p := range series {
			if p.Capacity > 0 && p.Cycles <= taskCycles {
				b.Fatalf("%s cap %d: baseline %d should lose to task %d", model, p.Capacity, p.Cycles, taskCycles)
			}
		}
	}
}

var table1Once sync.Once

// BenchmarkTable1 regenerates Table 1: kcycles for frame counts 10..1000
// (4-process buffers = 100), expecting flat ratios around 4-5x.
func BenchmarkTable1(b *testing.B) {
	r := pfcSynth(b)
	frameCounts := []int{10, 50, 100, 500, 1000}
	var rows []sim.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sim.Table1(r, frameCounts)
		if err != nil {
			b.Fatal(err)
		}
	}
	table1Once.Do(func() {
		sim.PrintTable1(os.Stdout, rows)
	})
	for _, row := range rows {
		for model, ratio := range row.Ratio {
			if ratio < 2.5 || ratio > 8 {
				b.Fatalf("frames %d %s: ratio %.2f out of shape", row.Frames, model, ratio)
			}
		}
	}
}

var table2Once sync.Once

// BenchmarkTable2 regenerates Table 2: code size of the single task vs
// the four separate tasks with inlined communication primitives.
func BenchmarkTable2(b *testing.B) {
	r := pfcSynth(b)
	var rows []sim.Table2Row
	for i := 0; i < b.N; i++ {
		rows = sim.Table2(r)
	}
	table2Once.Do(func() {
		sim.PrintTable2(os.Stdout, rows)
	})
	for _, row := range rows {
		if row.Ratio < 4 || row.Ratio > 12 {
			b.Fatalf("%s: size ratio %.1f out of shape", row.Model, row.Ratio)
		}
	}
}

// BenchmarkSynthesisPFC measures the full compile-link-schedule-codegen
// flow on the video application (the paper reports "less than a minute";
// the graph engine is far below that). The synthesis cache is disabled:
// this benchmark measures the flow, not the memo lookup.
func BenchmarkSynthesisPFC(b *testing.B) {
	b.ReportAllocs()
	opt := &core.Options{DisableCache: true}
	for i := 0; i < b.N; i++ {
		if _, err := core.Synthesize(apps.PFC, apps.PFCSpec, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesisPFCWarm measures the cached path of the same call:
// after one priming run, every iteration is a hash plus a map lookup.
// Comparing against BenchmarkSynthesisPFC gives the cache speedup
// (expected to be far beyond the 10x acceptance floor).
func BenchmarkSynthesisPFCWarm(b *testing.B) {
	b.ReportAllocs()
	core.ResetCache()
	defer core.ResetCache()
	if _, err := core.Synthesize(apps.PFC, apps.PFCSpec, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Synthesize(apps.PFC, apps.PFCSpec, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// corpusBenchApps builds the fixed 24-app corpus shared by the batch
// benchmarks (same seed: identical apps in both, so the serial/parallel
// comparison is apples to apples).
func corpusBenchApps() []*corpus.App {
	return corpus.GenerateCorpus(7, 24, corpus.DefaultConfig())
}

func benchCorpus(b *testing.B, workers int) {
	b.ReportAllocs()
	apps := corpusBenchApps()
	// Per-app schedule searches stay serial: the batch scales over
	// apps, and nesting both pools would contend for the same cores.
	opt := corpus.BatchOptions{Workers: workers, Core: &core.Options{Workers: 1, DisableCache: true}}
	done, elapsed := 0, 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := corpus.RunBatch(context.Background(), apps, opt)
		if br.Failed > 0 {
			b.Fatalf("%d corpus apps failed", br.Failed)
		}
		done += len(br.Results)
		elapsed += br.Elapsed.Seconds()
	}
	b.ReportMetric(float64(done)/elapsed, "apps/s")
}

// BenchmarkCorpusSerial synthesizes the 24-app corpus one app at a
// time — the scale-out baseline.
func BenchmarkCorpusSerial(b *testing.B) { benchCorpus(b, 1) }

// BenchmarkCorpusParallel synthesizes the same corpus on a GOMAXPROCS
// worker pool. On a multi-core machine (GOMAXPROCS >= 4) this shows the
// app-level speedup curve; on a single hardware thread it degenerates
// to the serial timing.
func BenchmarkCorpusParallel(b *testing.B) { benchCorpus(b, runtime.GOMAXPROCS(0)) }

// BenchmarkBaselinePerFrame measures baseline execution cost per frame.
func BenchmarkBaselinePerFrame(b *testing.B) {
	r := pfcSynth(b)
	for _, cost := range sim.Presets() {
		b.Run(cost.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunBaselinePFC(r, sim.Workload{Frames: 10}, 100, cost, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTaskPerFrame measures synthesized-task execution per frame.
func BenchmarkTaskPerFrame(b *testing.B) {
	r := pfcSynth(b)
	for _, cost := range sim.Presets() {
		b.Run(cost.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunTaskPFC(r, sim.Workload{Frames: 10}, cost); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// exploreLargeNet builds the single large net of the exploration
// benchmarks: `pipes` independent token rings of `stages` internal
// places each, whose reachable space is the full product of ring
// positions (stages^pipes markings) — big enough that reachability
// construction, not setup, dominates. Each ring transition also holds
// a self-loop on a per-ring fuel place, widening every preset the way
// multi-input joins do, so the full-partition scan the firing table's
// incremental enabled sets replace has a realistic per-ECS cost.
func exploreLargeNet(pipes, stages int) *petri.Net {
	n := petri.New(fmt.Sprintf("explore-%dx%d", pipes, stages))
	for p := 0; p < pipes; p++ {
		fuel := n.AddPlace(fmt.Sprintf("fuel%d", p), petri.PlaceChannel, 1)
		var ps []*petri.Place
		for s := 0; s < stages; s++ {
			init := 0
			if s == 0 {
				init = 1
			}
			ps = append(ps, n.AddPlace(fmt.Sprintf("r%d_%d", p, s), petri.PlaceInternal, init))
		}
		for s := 0; s < stages; s++ {
			t := n.AddTransition(fmt.Sprintf("t%d_%d", p, s), petri.TransNormal)
			n.AddArc(ps[s], t, 1)
			n.AddArcTP(t, ps[(s+1)%stages], 1)
			n.AddSelfLoop(fuel, t, 1)
		}
	}
	return n
}

// BenchmarkExploreLarge measures cold single-net reachability
// construction on a 11^5-state net (161051 markings, ~805k edges) by
// the in-process explorer: the firing table's incremental enabled-ECS
// sets and the inline driver, hashing each successor once. Results match the
// reference explorer of the petri tests byte for byte
// (TestExploreMatchesReference). Under `-cpu 1` its B/op and
// allocs/op are exact and gated by cmd/benchdiff.
func BenchmarkExploreLarge(b *testing.B) {
	const pipes, stages = 5, 11
	want := 1
	for i := 0; i < pipes; i++ {
		want *= stages
	}
	b.Run("serial-tracked", func(b *testing.B) {
		b.ReportAllocs()
		n := exploreLargeNet(pipes, stages)
		opt := petri.ExploreOptions{MaxMarkings: want + 1}
		for i := 0; i < b.N; i++ {
			r := n.Explore(opt)
			if r.Len() != want || r.Truncated {
				b.Fatalf("explored %d markings (truncated=%v), want %d", r.Len(), r.Truncated, want)
			}
		}
	})
}

// BenchmarkExploreDist documents the session overhead of cross-process
// exploration: the same reachability construction as
// BenchmarkExploreLarge (on a smaller 4^4-ring product space so the
// one-shot CI run stays quick) through internal/dist worker processes
// at 1 and 2 local workers. Each iteration is a full session — init,
// record batches and level commits streamed to the workers, their
// candidate chunks merged as they arrive — so ns/op versus the serial
// variant is precisely the protocol cost; the per-level byte traffic
// is reported as metrics. Workers are
// spawned once per sub-benchmark (process startup is deployment cost,
// not per-exploration cost). Results are byte-identical to serial by
// construction (pinned by the dist determinism matrix), which the loop
// re-asserts via the state count.
func BenchmarkExploreDist(b *testing.B) {
	const pipes, stages = 4, 4
	want := 1
	for i := 0; i < pipes; i++ {
		want *= stages
	}
	opt := petri.ExploreOptions{MaxMarkings: want + 1}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		n := exploreLargeNet(pipes, stages)
		for i := 0; i < b.N; i++ {
			if r := n.Explore(opt); r.Len() != want || r.Truncated {
				b.Fatalf("explored %d markings (truncated=%v), want %d", r.Len(), r.Truncated, want)
			}
		}
	})
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("procs-%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			pool, err := dist.SpawnLocal(procs)
			if err != nil {
				b.Fatalf("spawn %d workers: %v", procs, err)
			}
			defer pool.Close()
			n := exploreLargeNet(pipes, stages)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := n.ExploreDist(pool, opt)
				if err != nil {
					b.Fatal(err)
				}
				if r.Len() != want || r.Truncated {
					b.Fatalf("explored %d markings (truncated=%v), want %d", r.Len(), r.Truncated, want)
				}
			}
			b.StopTimer()
			st := pool.LastSessionStats()
			if st.Levels > 0 {
				b.ReportMetric(float64(st.BytesSent)/float64(st.Levels), "sentB/level")
				b.ReportMetric(float64(st.BytesRecv)/float64(st.Levels), "recvB/level")
				b.ReportMetric(float64(st.Levels), "levels")
			}
		})
	}
}

// BenchmarkExploreDistPipelined measures the dist session on the full
// 161k-state ExploreLarge net at 1, 2 and 4 workers: the streaming
// merge consumes each worker's chunks as they arrive, record batches
// overlap the next level's expansion with the current level's merge
// tail, and candNew candidates resolve by shipped hash. Reported
// alongside timing: coordinator fires per session (must equal the
// states materialized — the no-refire property the unit tests pin),
// candNew count, chunk count and bytes per level; and the beyond-RAM
// claim — the largest worker's replica footprint (store + enabled-set
// bits, exact live bytes), its boundary-parent cache and its
// end-of-session Go heap. Store bytes must scale ~1/N with the worker
// count, the property the dist-memory CI gate pins at a strict 0.75x
// ratio on a smaller net; the cache is bounded by construction.
func BenchmarkExploreDistPipelined(b *testing.B) {
	const pipes, stages = 5, 11
	want := 1
	for i := 0; i < pipes; i++ {
		want *= stages
	}
	opt := petri.ExploreOptions{MaxMarkings: want + 1}
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("procs-%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			pool, err := dist.SpawnLocal(procs)
			if err != nil {
				b.Fatalf("spawn %d workers: %v", procs, err)
			}
			defer pool.Close()
			n := exploreLargeNet(pipes, stages)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := n.ExploreDist(pool, opt)
				if err != nil {
					b.Fatal(err)
				}
				if r.Len() != want || r.Truncated {
					b.Fatalf("explored %d markings (truncated=%v), want %d", r.Len(), r.Truncated, want)
				}
			}
			b.StopTimer()
			st := pool.LastSessionStats()
			if st.CoordFires != int64(want-1) {
				b.Fatalf("coordinator fired %d times, want one per interned state = %d", st.CoordFires, want-1)
			}
			var storeMax, heapMax, cacheMax int64
			held := 0
			for _, wm := range st.Workers {
				if v := wm.StoreBytes + wm.BitsBytes; v > storeMax {
					storeMax = v
				}
				if wm.HeapBytes > heapMax {
					heapMax = wm.HeapBytes
				}
				if wm.CacheBytes > cacheMax {
					cacheMax = wm.CacheBytes
				}
				held += wm.States
			}
			if held != want {
				b.Fatalf("workers hold %d states in total, want %d", held, want)
			}
			b.ReportMetric(float64(st.CandNew), "candNew")
			b.ReportMetric(float64(st.CoordFires), "coordFires")
			b.ReportMetric(float64(st.Chunks), "chunks")
			b.ReportMetric(float64(storeMax), "workerStoreB")
			b.ReportMetric(float64(cacheMax), "workerCacheB")
			b.ReportMetric(float64(heapMax), "workerHeapB")
			if st.Levels > 0 {
				b.ReportMetric(float64(st.BytesSent)/float64(st.Levels), "sentB/level")
				b.ReportMetric(float64(st.BytesRecv)/float64(st.Levels), "recvB/level")
			}
		})
	}
}

// dividerNet rebuilds the Figure 7 divider chain for the termination
// ablation.
func dividerNet(k int) *petri.Net {
	n := petri.New("fig7")
	p1 := n.AddPlace("p1", petri.PlaceChannel, 0)
	p2 := n.AddPlace("p2", petri.PlaceChannel, 0)
	p3 := n.AddPlace("p3", petri.PlaceChannel, 0)
	p4 := n.AddPlace("p4", petri.PlaceChannel, 0)
	a := n.AddTransition("a", petri.TransSourceUnc)
	bt := n.AddTransition("b", petri.TransNormal)
	c := n.AddTransition("c", petri.TransNormal)
	d := n.AddTransition("d", petri.TransNormal)
	e := n.AddTransition("e", petri.TransNormal)
	n.AddArcTP(a, p1, 1)
	n.AddArc(p1, bt, k)
	n.AddArcTP(bt, p2, 1)
	n.AddArc(p2, c, k)
	n.AddArcTP(c, p3, 1)
	n.AddArc(p3, d, 1)
	n.AddArcTP(d, p4, k-1)
	n.AddArc(p4, e, 1)
	return n
}

// BenchmarkIrrelevanceVsBounds is the Figure 7 ablation: the irrelevance
// criterion schedules the k-divider chain for every k while uniform
// place bounds below k always fail.
func BenchmarkIrrelevanceVsBounds(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("irrelevance/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			n := dividerNet(k)
			for i := 0; i < b.N; i++ {
				if _, err := sched.FindSchedule(n, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("bounds/k=%d", k), func(b *testing.B) {
			n := dividerNet(k)
			opt := &sched.Options{Term: sched.UniformBounds(n, k-1)}
			for i := 0; i < b.N; i++ {
				if _, err := sched.FindSchedule(n, 0, opt); err == nil {
					b.Fatal("bounded search should fail below k")
				}
			}
		})
	}
}

// BenchmarkEngines compares the three schedule-search engines on the
// Figure 8 net (the ablation for the graph-engine design choice).
func BenchmarkEngines(b *testing.B) {
	n := fig8BenchNet()
	for _, eng := range []struct {
		name string
		e    sched.Engine
	}{
		{"graph", sched.EngineGraph},
		{"tree-greedy", sched.EngineTreeGreedy},
		{"tree-exhaustive", sched.EngineTreeExhaustive},
	} {
		b.Run(eng.name, func(b *testing.B) {
			b.ReportAllocs()
			opt := &sched.Options{Engine: eng.e}
			for i := 0; i < b.N; i++ {
				if _, err := sched.FindSchedule(n, 0, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func fig8BenchNet() *petri.Net {
	n := petri.New("fig8")
	p1 := n.AddPlace("p1", petri.PlaceChannel, 0)
	p2 := n.AddPlace("p2", petri.PlaceChannel, 0)
	p3 := n.AddPlace("p3", petri.PlaceChannel, 0)
	a := n.AddTransition("a", petri.TransSourceUnc)
	bt := n.AddTransition("b", petri.TransNormal)
	c := n.AddTransition("c", petri.TransNormal)
	d := n.AddTransition("d", petri.TransNormal)
	e := n.AddTransition("e", petri.TransNormal)
	n.AddArcTP(a, p1, 1)
	n.AddArc(p1, bt, 1)
	n.AddArcTP(bt, p2, 1)
	n.AddArc(p1, c, 1)
	n.AddArcTP(c, p3, 1)
	n.AddArc(p2, d, 1)
	n.AddArc(p3, e, 2)
	n.AddArcTP(e, p1, 1)
	return n
}

// BenchmarkHeuristicAblation compares the T-invariant ECS ordering
// against the naive ordering in the exhaustive tree engine (Section
// 5.5.2's motivation: fewer nodes explored).
func BenchmarkHeuristicAblation(b *testing.B) {
	n := fig8BenchNet()
	b.Run("tinvariant-order", func(b *testing.B) {
		var nodes int
		for i := 0; i < b.N; i++ {
			s, err := sched.FindSchedule(n, 0, &sched.Options{Engine: sched.EngineTreeExhaustive})
			if err != nil {
				b.Fatal(err)
			}
			nodes = s.Stats.NodesCreated
		}
		b.ReportMetric(float64(nodes), "nodes")
	})
	b.Run("naive-order", func(b *testing.B) {
		var nodes int
		for i := 0; i < b.N; i++ {
			s, err := sched.FindSchedule(n, 0, &sched.Options{Engine: sched.EngineTreeExhaustive, Order: sched.NaiveOrder{}})
			if err != nil {
				b.Fatal(err)
			}
			nodes = s.Stats.NodesCreated
		}
		b.ReportMetric(float64(nodes), "nodes")
	})
}
