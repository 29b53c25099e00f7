// Command qssbench is the repository benchmark. One run executes one
// seeded workload against the public entry points of the synthesis
// flow, checks every output against an independent reference, and
// prints its metrics: the end-to-end ones by default, the per-layer
// ones with --trace 1. README.md documents the workloads and metrics.
//
//	qssbench --workload pfc --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/dist"
)

func main() {
	// dist.SpawnLocal re-executes this binary for its worker processes
	// and the service workloads re-execute it for the server child; both
	// must branch off before any benchmark logic runs.
	dist.MaybeWorker()
	if os.Getenv(envServe) != "" {
		os.Exit(serveChild())
	}
	os.Exit(realMain())
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"pfc":          runPFC,
	"service":      runServiceCold,
	"service-warm": runServiceWarm,
	"analyze":      runAnalyze,
	"dist":         runDist,
}

// setupRuns is how many times a run repeats its set-up; setup_s is the
// median, so one slow process start does not move it.
const setupRuns = 3

type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// corrupt damages one output of the run before it is checked, to
	// show that the checks see it.
	corrupt bool
	// traceOut is where a traced run writes its spans.
	traceOut string
}

func realMain() int {
	var opt options
	var seconds float64
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	flag.BoolVar(&opt.corrupt, "corrupt", false, "damage one output before checking it (self-test of the checks)")
	flag.Parse()
	run, ok := workloads[opt.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "qssbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	opt.window = time.Duration(seconds * float64(time.Second))
	opt.trace = trace == 1
	opt.traceOut = fmt.Sprintf(".bench_build/spans-%s-%d.json", opt.workload, opt.seed)
	b := newBench(opt)
	b.checkPeakReset()
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "qssbench %s: %v\n", opt.workload, err)
		return 1
	}
	if err := b.finish(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "qssbench %s: %v\n", opt.workload, err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench collects one run's op outcomes, metrics and run record.
type bench struct {
	opt       options
	tr        *tracer // nil unless opt.trace
	attempted int
	failed    int
	failMsgs  int
	e2e       map[string]metric
	layer     map[string]metric
	lines     []string // human-readable metrics and record, printed before the JSON
	ticks0    cpuTicks
	wall0     time.Time
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newBench(opt options) *bench {
	b := &bench{opt: opt, e2e: map[string]metric{}, layer: map[string]metric{}, ticks0: readCPUTicks(), wall0: time.Now()}
	if opt.trace {
		b.tr = newTracer()
	}
	return b
}

// op records the outcome of one attempted op: err is its failure, a
// refusal, or a mismatch with its reference.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if b.failMsgs < 5 {
			fmt.Fprintf(os.Stderr, "qssbench %s: op failed: %v\n", b.opt.workload, err)
		}
		b.failMsgs++
	}
}

// endToEnd sets an end-to-end metric. Only names listed in
// BENCHMARK.json's end_to_end go into the JSON of an untraced run; the
// others are printed beside them for the reader.
func (b *bench) endToEnd(name, unit string, v float64) {
	b.e2e[name] = metric{v, unit}
	b.lines = append(b.lines, fmt.Sprintf("metric %s = %.6g %s", name, v, unit))
}

// note prints a run-record value (not a metric, never gated).
func (b *bench) note(key string, v any) {
	b.lines = append(b.lines, fmt.Sprintf("record %s = %v", key, v))
}

// gatedEndToEnd and perLayer are the metric sets BENCHMARK.json lists;
// every run reports all of one set, so every workload prints every name.
var gatedEndToEnd = []string{"setup_s", "cpu_ms_per_op", "alloc_mb_per_op", "peak_rss_mb"}

// reportSamples sets cpu_ms_per_op, alloc_mb_per_op and peak_rss_mb
// from the window's samples. CPU and allocation are medians over the
// samples, so a burst of host noise in one sample does not move them;
// with pooled they are instead totals over the window divided by its
// ops, for ops that differ from each other as much as the apps of a
// cold corpus do. Peak RSS is the mean of the samples' peaks: an op's
// peak depends on where the collector's cycles fall in it and on how
// much of the previous op's heap is still resident, so single peaks
// land on a few levels a fifth apart, and a median would pick one of
// them. It returns the CPU per op.
func (b *bench) reportSamples(ss []sample, pooled bool) float64 {
	var cpu, alloc []float64
	var cpuSum time.Duration
	var allocSum uint64
	var peakSum float64
	ops := 0
	for _, s := range ss {
		if s.ops == 0 {
			continue
		}
		cpu = append(cpu, ms(s.cpu)/float64(s.ops))
		alloc = append(alloc, float64(s.alloc)/1e6/float64(s.ops))
		peakSum += float64(s.peak) / 1e6
		cpuSum += s.cpu
		allocSum += s.alloc
		ops += s.ops
	}
	cpuPerOp, allocPerOp := median(cpu), median(alloc)
	if pooled {
		cpuPerOp = ms(cpuSum) / float64(ops)
		allocPerOp = float64(allocSum) / 1e6 / float64(ops)
	}
	b.endToEnd("cpu_ms_per_op", "ms", cpuPerOp)
	b.endToEnd("alloc_mb_per_op", "MB", allocPerOp)
	b.endToEnd("peak_rss_mb", "MB", peakSum/float64(len(cpu)))
	b.note("samples", len(cpu))
	return cpuPerOp
}

// checkPeakReset records in the run record when the kernel refuses to
// restart the peak-RSS high-water mark; every peak is then the peak
// since the process started.
func (b *bench) checkPeakReset() {
	if err := resetPeakRSS(); err != nil {
		b.note("peak_rss_reset", err)
	}
}

// setupResult is the cost of one set-up, from its start to its first
// result, with the checks that result needs left out.
type setupResult struct {
	cpu, wall time.Duration
}

// setups reports set-up cost: the median CPU seconds of setupRuns
// set-ups as setup_s, and their median wall time in the run record.
func (b *bench) setups(rs []setupResult) {
	var cpu, wall []float64
	for _, r := range rs {
		cpu = append(cpu, r.cpu.Seconds())
		wall = append(wall, r.wall.Seconds())
	}
	b.endToEnd("setup_s", "s", median(cpu))
	b.note("setup_wall_s", fmt.Sprintf("%.4f", median(wall)))
}

// finish prints the run record, the metrics and, as the last line, the
// JSON result.
func (b *bench) finish(w io.Writer) error {
	b.note("workload", b.opt.workload)
	b.note("seed", b.opt.seed)
	b.note("gomaxprocs", runtime.GOMAXPROCS(0))
	b.note("nproc", runtime.NumCPU())
	b.note("cpu_model", fmt.Sprintf("%q", cpuModel()))
	b.note("go_version", runtime.Version())
	b.note("steal_share", fmt.Sprintf("%.4f", stealShare(b.ticks0, readCPUTicks())))
	b.note("run_wall_s", fmt.Sprintf("%.2f", time.Since(b.wall0).Seconds()))
	frac := 0.0
	if b.attempted > 0 {
		frac = float64(b.failed) / float64(b.attempted)
	}
	b.lines = append(b.lines, fmt.Sprintf("metric fail_frac = %.6g ratio", frac))
	for _, l := range b.lines {
		fmt.Fprintln(w, l)
	}
	out := map[string]metric{}
	if b.opt.trace {
		for _, name := range perLayer {
			m := b.layer[name] // a layer this workload never calls reads 0
			m.Unit = perLayerUnit[name]
			out[name] = m
		}
	} else {
		for _, name := range gatedEndToEnd {
			m, ok := b.e2e[name]
			if !ok {
				return fmt.Errorf("metric %s was not measured", name)
			}
			out[name] = m
		}
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0 && b.attempted > 0, b.attempted, b.failed, out}
	enc, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(enc))
	return err
}
