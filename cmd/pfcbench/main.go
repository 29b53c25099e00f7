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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/profiling"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
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

// run is the command on the given arguments and streams; it returns
// the exit code: 2 for a usage error, 1 for a failed synthesis,
// simulation or write. Profiles are flushed before it returns.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("pfcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var bf benchFlags
	fig20 := fs.Bool("fig20", false, "regenerate Figure 20 (buffer-size sweep)")
	table1 := fs.Bool("table1", false, "regenerate Table 1 (frame-count sweep)")
	table2 := fs.Bool("table2", false, "regenerate Table 2 (code size)")
	all := fs.Bool("all", false, "regenerate everything")
	fs.IntVar(&bf.frames, "frames", 10, "frames for Figure 20")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *all {
		*fig20, *table1, *table2 = true, true, true
	}
	bf.anyOutput = *fig20 || *table1 || *table2
	if err := bf.validate(); err != nil {
		fmt.Fprintln(stderr, "pfcbench:", err)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "pfcbench:", err)
		return 1
	}
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			if c := fail(err); code == 0 {
				code = c
			}
		}
	}()
	res, err := apps.SynthesizePFC()
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "synthesized pfc: schedule %d nodes, %d segments, %s\n\n",
		len(res.Schedules[0].Nodes), len(res.Tasks[0].Segments), channelBounds(res))
	if *fig20 {
		pts, err := sim.Figure20(res, bf.frames, []int{1, 2, 5, 10, 20, 50, 100})
		if err != nil {
			return fail(err)
		}
		if err := sim.PrintFigure20(stdout, pts); err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout)
	}
	if *table1 {
		rows, err := sim.Table1(res, []int{10, 50, 100, 500, 1000})
		if err != nil {
			return fail(err)
		}
		if err := sim.PrintTable1(stdout, rows); err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout)
	}
	if *table2 {
		if err := sim.PrintTable2(stdout, sim.Table2(res)); err != nil {
			return fail(err)
		}
	}
	return 0
}

// channelBounds describes the channel bounds the schedules guarantee:
// "all channel bounds = 1" when every channel's bound is 1, as in the
// paper's PFC result, and each channel's bound otherwise.
func channelBounds(res *core.Result) string {
	var each []string
	same := true
	for _, ch := range res.Sys.Channels {
		b := res.Bounds[ch.Place.ID]
		same = same && b == 1
		each = append(each, fmt.Sprintf("%s=%d", ch.Spec.Name, b))
	}
	if same && len(each) > 0 {
		return "all channel bounds = 1"
	}
	return "channel bounds " + strings.Join(each, " ")
}
