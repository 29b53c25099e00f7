// Command qssbatch generates a randomized corpus of FlowC applications
// and synthesizes them concurrently, reporting aggregate throughput —
// the scale-out driver for the quasi-static synthesis flow.
//
// Usage:
//
//	qssbatch [-n apps] [-seed N] [-workers N]
//	         [-compare] [-cpuprofile f] [-memprofile f] [shape flags] [-v]
//	qssbatch -pnml net.pnml [-pnml ...] [-pnml-max-markings N]
//	         [-pnml-max-tokens N] [-v]
//	qssbatch -emit-pnml dir [-n apps] [-seed N] [shape flags]
//
// -workers bounds the number of concurrent app syntheses (0 =
// GOMAXPROCS); each schedule search explores serially on its app's
// goroutine, so results are byte-identical for every value.
// -compare additionally runs the serial baseline and prints the
// speedup. -cpuprofile/-memprofile
// write pprof profiles, so perf regressions can be diagnosed without
// editing source. Shape flags mirror corpus.Config; see
// internal/corpus.
//
// -pnml switches to interchange-net analysis: each named PNML document
// (ISO/IEC 15909-2 P/T subset, see internal/pnml and docs/PNML.md) is
// imported and explored — reachable states, deadlocks, place bounds
// and a fingerprint for cross-configuration comparison — instead of
// generating a corpus. Corpus-shape and synthesis flags do not apply
// and are rejected. -pnml-max-markings and -pnml-max-tokens bound the
// exploration (imported nets may be unbounded; a truncated report is
// the unboundedness witness).
//
// -emit-pnml generates the corpus and writes each app's linked system
// net as a PNML document into the given directory — the interchange
// producer side — without synthesizing schedules.
//
// Contradictory flag combinations (negative counts, -pnml with corpus
// flags, -emit-pnml with exploration flags) are rejected with a usage
// error rather than silently clamped.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/pnml"
	"repro/internal/profiling"
)

func main() {
	// realMain so the profiling defers run before the process exits.
	os.Exit(realMain())
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// batchFlags holds the scalar flags that need cross-validation.
// explicit records which flags the user actually set (from flag.Visit)
// so mode conflicts distinguish "passed -n" from "-n at its default".
type batchFlags struct {
	n               int
	workers         int
	pnml            multiFlag
	pnmlMaxMarkings int
	pnmlMaxTokens   int
	emitPNML        string
	explicit        map[string]bool
}

// corpusOnlyFlags have no meaning when -pnml switches the command to
// interchange-net analysis: the corpus shape, the app-level pool and
// the synthesis comparison all presuppose generated FlowC apps.
var corpusOnlyFlags = []string{
	"n", "seed", "workers", "compare", "emit-pnml",
	"pipelines", "stages", "fanout", "ops", "width", "choice", "select", "bounds",
}

// exploreFlags configure state-space exploration; -emit-pnml never
// explores, so combining them is a mistake worth flagging.
var exploreFlags = []string{"compare"}

// validate rejects contradictory or out-of-range combinations with a
// descriptive error instead of silently clamping.
func (f *batchFlags) validate() error {
	switch {
	case f.n < 0:
		return fmt.Errorf("-n must be >= 0, got %d", f.n)
	case f.workers < 0:
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", f.workers)
	case f.pnmlMaxMarkings < 0:
		return fmt.Errorf("-pnml-max-markings must be >= 0 (0 = the explorer's default), got %d", f.pnmlMaxMarkings)
	case f.pnmlMaxTokens < 0:
		return fmt.Errorf("-pnml-max-tokens must be >= 0 (0 = no cap), got %d", f.pnmlMaxTokens)
	}
	if len(f.pnml) > 0 {
		for _, name := range corpusOnlyFlags {
			if f.explicit[name] {
				return fmt.Errorf("-pnml analyzes interchange nets, not a generated corpus: -%s does not apply", name)
			}
		}
	} else {
		for _, name := range []string{"pnml-max-markings", "pnml-max-tokens"} {
			if f.explicit[name] {
				return fmt.Errorf("-%s requires -pnml (it bounds the interchange-net exploration)", name)
			}
		}
	}
	if f.emitPNML != "" {
		for _, name := range exploreFlags {
			if f.explicit[name] {
				return fmt.Errorf("-emit-pnml only generates and exports nets, it never explores: -%s does not apply", name)
			}
		}
	}
	return nil
}

func realMain() (code int) {
	var bf batchFlags
	flag.IntVar(&bf.n, "n", 20, "number of corpus apps to generate")
	seed := flag.Int64("seed", 1, "master corpus seed")
	flag.IntVar(&bf.workers, "workers", 0, "concurrent app syntheses (0 = GOMAXPROCS)")
	compare := flag.Bool("compare", false, "also run the serial baseline and report the speedup")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	verbose := flag.Bool("v", false, "print one line per app (with -pnml: per-place bounds)")
	flag.Var(&bf.pnml, "pnml", "analyze this PNML net instead of a corpus (repeatable)")
	flag.IntVar(&bf.pnmlMaxMarkings, "pnml-max-markings", 0, "marking budget for -pnml exploration (0 = the explorer's default)")
	flag.IntVar(&bf.pnmlMaxTokens, "pnml-max-tokens", 0, "per-place token cap for -pnml exploration (0 = none; required for unbounded nets)")
	flag.StringVar(&bf.emitPNML, "emit-pnml", "", "write each corpus app's system net as PNML into this directory and exit")

	cfg := corpus.DefaultConfig()
	flag.IntVar(&cfg.MaxPipelines, "pipelines", cfg.MaxPipelines, "max pipelines (tasks) per app")
	flag.IntVar(&cfg.MaxStages, "stages", cfg.MaxStages, "max stages per tree pipeline")
	flag.IntVar(&cfg.MaxFanOut, "fanout", cfg.MaxFanOut, "max fan-out per stage")
	flag.IntVar(&cfg.MaxOps, "ops", cfg.MaxOps, "max unrolled channel ops per edge")
	flag.IntVar(&cfg.MaxWidth, "width", cfg.MaxWidth, "max multi-rate width per op")
	flag.Float64Var(&cfg.ChoiceDensity, "choice", cfg.ChoiceDensity, "data-dependent tap probability per stage")
	flag.Float64Var(&cfg.SelectDensity, "select", cfg.SelectDensity, "SELECT-drain pipeline probability")
	flag.Float64Var(&cfg.BoundDensity, "bounds", cfg.BoundDensity, "explicit channel bound probability")
	flag.Parse()

	bf.explicit = map[string]bool{}
	flag.Visit(func(f *flag.Flag) { bf.explicit[f.Name] = true })
	if err := bf.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "qssbatch:", err)
		flag.Usage()
		return 2
	}

	if bf.emitPNML != "" {
		return emitCorpusPNML(bf.emitPNML, *seed, bf.n, cfg)
	}
	var apps []*corpus.App
	if len(bf.pnml) == 0 {
		apps = corpus.GenerateCorpus(*seed, bf.n, cfg)
		procs := 0
		for _, a := range apps {
			procs += a.Procs
		}
		fmt.Printf("corpus: %d apps, %d processes (seed %d)\n", len(apps), procs, *seed)
	}

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qssbatch:", err)
		return 2
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "qssbatch:", err)
			if code == 0 {
				code = 2
			}
		}
	}()

	if len(bf.pnml) > 0 {
		return runPNML(&bf, *verbose)
	}
	// The batch scales out over apps; the per-app source pool stays
	// serial so the app pool is the only one contending for cores.
	copt := &core.Options{Workers: 1, DisableCache: true}

	run := func(w int, o *core.Options) *corpus.BatchResult {
		return corpus.RunBatch(context.Background(), apps, corpus.BatchOptions{Workers: w, Core: o})
	}

	var serial *corpus.BatchResult
	if *compare {
		// The -compare baseline is fully serial: no app pool.
		serial = run(1, copt)
		report("serial", serial, *verbose)
	}
	br := run(bf.workers, copt)
	report(fmt.Sprintf("workers=%d", effectiveWorkers(bf.workers)), br, *verbose)
	if serial != nil && br.Elapsed > 0 {
		fmt.Printf("speedup: %.2fx\n", serial.Elapsed.Seconds()/br.Elapsed.Seconds())
	}
	if br.Failed > 0 {
		return 1
	}
	return 0
}

func effectiveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

func report(name string, br *corpus.BatchResult, verbose bool) {
	if verbose {
		for _, r := range br.Results {
			if r.Err != nil {
				fmt.Printf("  %-8s FAIL %v\n", r.App.Name, r.Err)
				continue
			}
			fmt.Printf("  %-8s %2d task(s) %6d nodes  %8s\n",
				r.App.Name, len(r.Res.Tasks), sumNodes(r.Res), r.Elapsed.Round(1000).String())
		}
	}
	fmt.Printf("%s: %d apps in %v — %.1f apps/s, %d schedules, %d tasks, %d search nodes, %d failed\n",
		name, len(br.Results), br.Elapsed.Round(1000000), br.Throughput(), br.Schedules, br.Tasks, br.NodesCreated, br.Failed)
}

func sumNodes(r *core.Result) int {
	n := 0
	for _, s := range r.Schedules {
		n += s.Stats.NodesCreated
	}
	return n
}

// runPNML analyzes each named interchange net: reachable states,
// deadlocks, place bounds and the cross-configuration fingerprint.
func runPNML(bf *batchFlags, verbose bool) int {
	opt := pnml.AnalyzeOptions{
		MaxMarkings:       bf.pnmlMaxMarkings,
		MaxTokensPerPlace: bf.pnmlMaxTokens,
	}
	code := 0
	for i, path := range bf.pnml {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== %s ==\n", path)
		a, err := pnml.AnalyzeFile(path, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qssbatch:", err)
			code = 1
			continue
		}
		a.Report(os.Stdout, verbose)
	}
	return code
}

// emitCorpusPNML generates the corpus and exports each app's linked
// system net as a PNML document — the producer side of the
// interchange, so other tools (or a later qssbatch -pnml run) can
// consume the same nets.
func emitCorpusPNML(dir string, seed int64, n int, cfg corpus.Config) int {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "qssbatch:", err)
		return 1
	}
	apps := corpus.GenerateCorpus(seed, n, cfg)
	for _, app := range apps {
		net, err := core.SystemNet(app.FlowC, app.Spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qssbatch: %s: %v\n", app.Name, err)
			return 1
		}
		path := filepath.Join(dir, app.Name+".pnml")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qssbatch:", err)
			return 1
		}
		if err := pnml.Export(f, net); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "qssbatch: %s: %v\n", path, err)
			return 1
		}
		fmt.Printf("  %-8s -> %s (%d places, %d transitions)\n", app.Name, path, len(net.Places), len(net.Transitions))
	}
	fmt.Printf("exported %d nets to %s (seed %d)\n", len(apps), dir, seed)
	return 0
}
