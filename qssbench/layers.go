package main

import (
	"fmt"
	"sort"
)

// perLayer lists the per-layer metrics of a traced run with their
// units, in the order BENCHMARK.json lists them. Every traced run
// reports all of them; a layer the workload never calls reads 0.
// Unless README.md says otherwise a value is a mean per traced op, and
// a time is CPU self time: the span's process CPU minus its children's.
var perLayer, perLayerUnit = func() ([]string, map[string]string) {
	table := [][2]string{
		{"core.synth_ms", "ms"}, {"core.hit_us", "us"}, {"core.hit_frac", "ratio"},
		{"flowc.parse_ms", "ms"}, {"flowc.check_ms", "ms"}, {"flowc.src_kb", "KB"},
		{"compile.ms", "ms"}, {"compile.transitions", "count"},
		{"link.parse_ms", "ms"}, {"link.ms", "ms"}, {"link.places", "count"}, {"link.transitions", "count"},
		{"sched.find_ms", "ms"}, {"sched.searches", "count"}, {"sched.states", "count"},
		{"sched.states_per_cpu_s", "1/s"}, {"sched.kept_frac", "ratio"}, {"sched.pruned_frac", "ratio"},
		{"sched.store_hot_mb", "MB"}, {"sched.alloc_mb", "MB"}, {"sched.indep_ms", "ms"},
		{"codegen.generate_ms", "ms"}, {"codegen.synth_ms", "ms"}, {"codegen.segments", "count"}, {"codegen.c_kb", "KB"},
		{"sim.task_kcycles", "kcycles"}, {"sim.task_code_bytes", "bytes"}, {"sim.baseline_kcycles", "kcycles"}, {"sim.ratio", "ratio"},
		{"petri.explore_ms", "ms"}, {"petri.states", "count"}, {"petri.edges", "count"},
		{"petri.states_per_cpu_s", "1/s"}, {"petri.store_hot_mb", "MB"}, {"petri.alloc_mb", "MB"},
		{"petri.allocs_per_state", "count"}, {"petri.fingerprint_ms", "ms"},
		{"pnml.parse_ms", "ms"}, {"pnml.doc_kb", "KB"}, {"pnml.analyze_ms", "ms"},
		{"server.req_ms", "ms"}, {"server.self_ms", "ms"}, {"server.req_kb", "KB"}, {"server.resp_kb", "KB"},
		{"server.rejected", "count"}, {"server.panics", "count"},
		{"dist.spawn_ms", "ms"}, {"dist.explore_ms", "ms"}, {"dist.coord_cpu_ms", "ms"}, {"dist.worker_cpu_ms", "ms"},
		{"dist.coord_wait_ms", "ms"}, {"dist.levels", "count"}, {"dist.sent_kb", "KB"}, {"dist.recv_kb", "KB"},
		{"dist.chunks", "count"}, {"dist.cand_new", "count"}, {"dist.coord_fires", "count"}, {"dist.fire_frac", "ratio"},
		{"dist.restarts", "count"}, {"dist.worker_store_mb", "MB"}, {"dist.worker_cache_kb", "KB"},
		{"corpus.gen_ms", "ms"}, {"corpus.apps", "count"},
		{"trace.cpu_ms_per_op", "ms"}, {"trace.overhead_ms", "ms"}, {"trace.unattributed_ms", "ms"},
	}
	names := make([]string, len(table))
	units := make(map[string]string, len(table))
	for i, e := range table {
		names[i] = e[0]
		units[e[0]] = e[1]
	}
	return names, units
}()

// spanLayer maps span names to the per-layer metric that takes their
// CPU self time.
var spanLayer = map[string]string{
	"flowc.ParseFile":           "flowc.parse_ms",
	"flowc.CheckFile":           "flowc.check_ms",
	"compile.CompileProcess":    "compile.ms",
	"link.ParseSpec":            "link.parse_ms",
	"link.Link":                 "link.ms",
	"sched.FindSchedule":        "sched.find_ms",
	"sched.CheckIndependence":   "sched.indep_ms",
	"sched.CombinedPlaceBounds": "sched.indep_ms",
	"codegen.Generate":          "codegen.generate_ms",
	"codegen.Synthesize":        "codegen.synth_ms",
	"pnml.ParseBytes":           "pnml.parse_ms",
	"pnml.Analyze":              "pnml.analyze_ms",
	"petri.Explore":             "petri.explore_ms",
	"pnml.Fingerprint":          "petri.fingerprint_ms",
	"petri.ExploreDist":         "dist.coord_cpu_ms",
	"op":                        "trace.unattributed_ms",
}

// layerCounts are the per-op counts recorded at the layer boundaries
// of traced ops, summed over the run; names starting with "_" feed
// ratios and are not reported themselves.
type layerCounts map[string]float64

// setLayer sets a per-layer metric that is not a per-op mean.
func (b *bench) setLayer(name string, v float64) {
	if _, ok := perLayerUnit[name]; !ok {
		panic("unlisted per-layer metric " + name)
	}
	b.layer[name] = metric{v, perLayerUnit[name]}
}

// traceMetrics turns the spans and counts of the traced ops into the
// per-layer metrics, writes the spans out, and reports the tracing
// overhead: traced minus untraced CPU per op.
func (b *bench) traceMetrics(counts layerCounts, untracedCPUPerOp, tracedCPUPerOp float64) error {
	st := b.tr.selfTimes()
	ops := float64(b.tr.ops)
	if ops == 0 {
		return fmt.Errorf("no traced ops")
	}
	perOp := map[string]float64{}
	for name, lt := range st {
		if m, ok := spanLayer[name]; ok {
			perOp[m] += lt.cpuUS / 1e3 / ops
		}
	}
	if lt := st["petri.ExploreDist"]; lt != nil {
		perOp["dist.explore_ms"] = lt.wallUS / 1e3 / ops
		perOp["dist.coord_wait_ms"] = (lt.wallUS - lt.cpuUS) / 1e3 / ops
	}
	// A request's wall time is its own (HTTP, JSON, queueing) plus the
	// synthesis time the server reported as its remote child.
	if lt := st["server.request"]; lt != nil {
		perOp["server.self_ms"] = lt.wallUS / 1e3 / ops
		perOp["server.req_ms"] = lt.wallUS / 1e3 / ops
	}
	if lt := st["core.synthesize"]; lt != nil {
		perOp["core.synth_ms"] = lt.wallUS / 1e3 / ops
		perOp["server.req_ms"] += lt.wallUS / 1e3 / ops
	}
	if lt := st["core.hit"]; lt != nil {
		perOp["core.hit_us"] = lt.wallUS / ops
		perOp["server.req_ms"] += lt.wallUS / 1e3 / ops
	}
	for name, v := range counts {
		if _, ok := perLayerUnit[name]; ok {
			perOp[name] += v / ops
		}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	perOp["sched.states_per_cpu_s"] = ratio(counts["sched.states"], perOp["sched.find_ms"]*ops/1e3)
	perOp["sched.kept_frac"] = ratio(counts["_sched.kept"], counts["sched.states"])
	perOp["sched.pruned_frac"] = ratio(counts["_sched.pruned"], counts["sched.states"])
	perOp["petri.states_per_cpu_s"] = ratio(counts["petri.states"], perOp["petri.explore_ms"]*ops/1e3)
	perOp["petri.allocs_per_state"] = ratio(counts["_petri.objects"], counts["petri.states"])
	perOp["dist.fire_frac"] = ratio(counts["dist.coord_fires"], counts["dist.cand_new"])
	perOp["core.hit_frac"] = ratio(counts["_core.hits"], counts["_requests"])
	perOp["trace.cpu_ms_per_op"] = tracedCPUPerOp
	perOp["trace.overhead_ms"] = tracedCPUPerOp - untracedCPUPerOp
	for name, v := range perOp {
		if _, set := b.layer[name]; !set {
			b.setLayer(name, v)
		}
	}
	b.note("traced_ops", b.tr.ops)
	b.note("spans_file", b.opt.traceOut)
	names := make([]string, 0, len(b.layer))
	for name := range b.layer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := b.layer[name]
		b.lines = append(b.lines, fmt.Sprintf("layer %s = %.6g %s", name, m.Value, m.Unit))
	}
	return b.tr.write(b.opt.traceOut)
}
