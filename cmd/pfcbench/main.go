// Command pfcbench regenerates the paper's evaluation on the PFC video
// application: Figure 20 (-fig20), Table 1 (-table1) and Table 2
// (-table2); -all runs everything.
//
// Usage:
//
//	pfcbench [-fig20] [-table1] [-table2] [-all] [-frames N]
//	         [-cpuprofile f] [-memprofile f]
//
// The schedule search explores serially in-process. -cpuprofile and
// -memprofile write pprof profiles, so perf regressions can be
// diagnosed without editing source. PNML interchange nets are analyzed
// by qssbatch -pnml.
//
// Contradictory flag combinations (no output asked for, a frame count
// below 1) are rejected with a usage error rather than silently
// clamped.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/profiling"
	"repro/internal/sim"
)

func main() {
	// realMain so the profiling defers run before the process exits.
	os.Exit(realMain())
}

// benchFlags holds the flags that need cross-validation.
type benchFlags struct {
	frames    int
	anyOutput bool
}

// validate rejects contradictory or out-of-range combinations with a
// descriptive error instead of silently clamping.
func (f *benchFlags) validate() error {
	switch {
	case !f.anyOutput:
		return fmt.Errorf("nothing to do: pass -fig20, -table1, -table2 or -all")
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
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if *all {
		*fig20, *table1, *table2 = true, true, true
	}
	bf.anyOutput = *fig20 || *table1 || *table2
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
	res, err := apps.SynthesizePFCWith(&core.Options{DisableCache: true})
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
