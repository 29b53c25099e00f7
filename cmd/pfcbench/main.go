// Command pfcbench regenerates the paper's evaluation on the PFC video
// application: Figure 20 (-fig20), Table 1 (-table1) and Table 2
// (-table2); -all runs everything.
//
// Usage:
//
//	pfcbench [-fig20] [-table1] [-table2] [-all] [-frames N]
//	         [-dist-workers N] [-dist-endpoint ep] [-freeze-levels]
//	         [-cpuprofile f] [-memprofile f]
//	pfcbench -pnml net.pnml [-pnml ...] [-pnml-max-markings N]
//	         [-pnml-max-tokens N] [exploration flags]
//
// The schedule search explores serially in-process; -dist-workers
// instead shards its state-space exploration across worker OS
// processes (spawned locally, or awaited as external cmd/qssd
// processes at -dist-endpoint), each holding only its owned hash
// shards. -freeze-levels moves closed exploration levels to on-disk
// delta segments (locally and in spawned workers). Results are
// byte-identical for every value of either. -cpuprofile/-memprofile
// write pprof profiles, so perf regressions can be diagnosed without
// editing source.
// -pnml switches to interchange-net analysis: each named PNML document
// (ISO/IEC 15909-2 P/T subset, see internal/pnml and docs/PNML.md) is
// imported and explored under the same exploration flags, reporting
// reachable states, deadlocks, place bounds and a fingerprint. The
// paper-evaluation flags (-fig20, -table1, -table2, -all, -frames)
// presuppose the synthesized PFC application and are rejected with
// -pnml.
//
// Contradictory flag combinations (negative counts, -dist-endpoint
// without -dist-workers, -pnml with evaluation flags) are rejected
// with a usage error rather than silently clamped.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/pnml"
	"repro/internal/profiling"
	"repro/internal/sim"
)

func main() {
	// MaybeWorker first: children re-executed by dist.SpawnLocal must
	// become workers, not rerun the benchmark.
	dist.MaybeWorker()
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

// benchFlags holds the flags that need cross-validation. explicit
// records which flags the user actually set (from flag.Visit) so mode
// conflicts distinguish "passed -frames" from "-frames at its default".
type benchFlags struct {
	frames          int
	distWorkers     int
	distEndpoint    string
	anyOutput       bool
	pnml            multiFlag
	pnmlMaxMarkings int
	pnmlMaxTokens   int
	explicit        map[string]bool
}

// evalFlags presuppose the synthesized PFC application and have no
// meaning when -pnml switches the command to interchange-net analysis.
var evalFlags = []string{"fig20", "table1", "table2", "all", "frames"}

// validate rejects contradictory or out-of-range combinations with a
// descriptive error instead of silently clamping.
func (f *benchFlags) validate() error {
	switch {
	case f.distWorkers < 0:
		return fmt.Errorf("-dist-workers must be >= 0 (0 = no worker processes), got %d", f.distWorkers)
	case f.distEndpoint != "" && f.distWorkers == 0:
		return fmt.Errorf("-dist-endpoint requires -dist-workers >= 1 (how many workers to await)")
	case f.pnmlMaxMarkings < 0:
		return fmt.Errorf("-pnml-max-markings must be >= 0 (0 = the explorer's default), got %d", f.pnmlMaxMarkings)
	case f.pnmlMaxTokens < 0:
		return fmt.Errorf("-pnml-max-tokens must be >= 0 (0 = no cap), got %d", f.pnmlMaxTokens)
	}
	if len(f.pnml) > 0 {
		for _, name := range evalFlags {
			if f.explicit[name] {
				return fmt.Errorf("-pnml analyzes interchange nets, not the PFC evaluation: -%s does not apply", name)
			}
		}
		return nil
	}
	switch {
	case f.explicit["pnml-max-markings"] || f.explicit["pnml-max-tokens"]:
		return fmt.Errorf("-pnml-max-markings/-pnml-max-tokens require -pnml (they bound the interchange-net exploration)")
	case !f.anyOutput:
		return fmt.Errorf("nothing to do: pass -fig20, -table1, -table2, -all or -pnml")
	case f.frames < 1:
		return fmt.Errorf("-frames must be >= 1, got %d", f.frames)
	}
	return nil
}

func realMain() (code int) {
	var bf benchFlags
	fig20 := flag.Bool("fig20", false, "regenerate Figure 20 (buffer-size sweep)")
	table1 := flag.Bool("table1", false, "regenerate Table 1 (frame-count sweep)")
	table2 := flag.Bool("table2", false, "regenerate Table 2 (code size)")
	all := flag.Bool("all", false, "regenerate everything")
	flag.IntVar(&bf.frames, "frames", 10, "frames for Figure 20")
	flag.IntVar(&bf.distWorkers, "dist-workers", 0, "worker OS processes sharding the exploration (0 = none)")
	flag.StringVar(&bf.distEndpoint, "dist-endpoint", "", "await externally started qssd workers at this endpoint instead of spawning")
	freezeLevels := flag.Bool("freeze-levels", false, "freeze closed exploration levels to on-disk delta segments")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Var(&bf.pnml, "pnml", "analyze this PNML net instead of the PFC evaluation (repeatable)")
	flag.IntVar(&bf.pnmlMaxMarkings, "pnml-max-markings", 0, "marking budget for -pnml exploration (0 = the explorer's default)")
	flag.IntVar(&bf.pnmlMaxTokens, "pnml-max-tokens", 0, "per-place token cap for -pnml exploration (0 = none; required for unbounded nets)")
	flag.Parse()
	if *all {
		*fig20, *table1, *table2 = true, true, true
	}
	bf.anyOutput = *fig20 || *table1 || *table2
	bf.explicit = map[string]bool{}
	flag.Visit(func(f *flag.Flag) { bf.explicit[f.Name] = true })
	if err := bf.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "pfcbench:", err)
		flag.Usage()
		return 2
	}
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			if c := fatal(err); code == 0 {
				code = c
			}
		}
	}()
	if *freezeLevels && bf.distWorkers > 0 {
		// Spawned workers inherit the environment; externally started
		// qssd workers take -freeze-levels themselves.
		os.Setenv(dist.EnvFreeze, "1")
	}
	if len(bf.pnml) > 0 {
		return runPNML(&bf, *freezeLevels)
	}
	res, err := apps.SynthesizePFCWith(&core.Options{
		DistWorkers:  bf.distWorkers,
		DistEndpoint: bf.distEndpoint,
		FreezeLevels: *freezeLevels,
		DisableCache: true,
	})
	if err != nil {
		return fatal(err)
	}
	fmt.Printf("synthesized pfc: schedule %d nodes, %d segments, all channel bounds = 1\n\n",
		len(res.Schedules[0].Nodes), len(res.Tasks[0].Segments))
	if *fig20 {
		pts, err := sim.Figure20(res, bf.frames, []int{1, 2, 5, 10, 20, 50, 100})
		if err != nil {
			return fatal(err)
		}
		if err := sim.PrintFigure20(os.Stdout, pts); err != nil {
			return fatal(err)
		}
		fmt.Println()
	}
	if *table1 {
		rows, err := sim.Table1(res, []int{10, 50, 100, 500, 1000})
		if err != nil {
			return fatal(err)
		}
		if err := sim.PrintTable1(os.Stdout, rows); err != nil {
			return fatal(err)
		}
		fmt.Println()
	}
	if *table2 {
		if err := sim.PrintTable2(os.Stdout, sim.Table2(res)); err != nil {
			return fatal(err)
		}
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "pfcbench:", err)
	return 1
}

// runPNML analyzes each named interchange net under the selected
// exploration strategy, sharing one dist pool (when requested) across
// all files.
func runPNML(bf *benchFlags, freeze bool) int {
	opt := pnml.AnalyzeOptions{
		MaxMarkings:       bf.pnmlMaxMarkings,
		MaxTokensPerPlace: bf.pnmlMaxTokens,
		FreezeLevels:      freeze,
	}
	if bf.distWorkers > 0 {
		var (
			pool *dist.Pool
			err  error
		)
		if bf.distEndpoint != "" {
			fmt.Printf("awaiting %d qssd worker(s) at %s\n", bf.distWorkers, bf.distEndpoint)
			pool, err = dist.Listen(bf.distEndpoint, bf.distWorkers)
		} else {
			pool, err = dist.SpawnLocal(bf.distWorkers)
		}
		if err != nil {
			return fatal(err)
		}
		defer pool.Close()
		opt.Dist = pool
	}
	code := 0
	for i, path := range bf.pnml {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== %s ==\n", path)
		a, err := pnml.AnalyzeFile(path, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pfcbench:", err)
			code = 1
			continue
		}
		a.Report(os.Stdout, false)
	}
	return code
}
