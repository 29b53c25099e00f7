// Command qss runs the complete quasi-static software synthesis flow:
// FlowC processes + netlist → linked Petri net → one schedule per
// uncontrollable input → generated C tasks with statically guaranteed
// channel bounds.
//
// Usage:
//
//	qss -flowc processes.flc -net system.net [-out dir] [-schedule] [-dot] [-bounds]
//
// Generated C goes to <out>/<task>.c (default: stdout), one task after
// the other in the order of the system's tasks. -schedule prints the
// schedules, -dot writes <out>/<task>.dot and is a usage error without
// -out, -bounds lists the channel buffer sizes the schedules guarantee.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command on the given arguments and streams; it returns
// the exit code: 2 for a usage error, 1 for a failed synthesis or
// write.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qss", flag.ContinueOnError)
	fs.SetOutput(stderr)
	flowcPath := fs.String("flowc", "", "FlowC source file (required)")
	netPath := fs.String("net", "", "netlist file in the system format (required)")
	outDir := fs.String("out", "", "output directory for generated files (default: stdout)")
	showSched := fs.Bool("schedule", false, "print the computed schedules")
	emitDot := fs.Bool("dot", false, "write schedule DOT files (requires -out)")
	showBounds := fs.Bool("bounds", true, "print the guaranteed channel bounds")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *flowcPath == "" || *netPath == "" {
		fs.Usage()
		return 2
	}
	if *emitDot && *outDir == "" {
		fmt.Fprintln(stderr, "qss: -dot writes <out>/<task>.dot files and requires -out")
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "qss:", err)
		return 1
	}
	flowcSrc, err := os.ReadFile(*flowcPath)
	if err != nil {
		return fail(err)
	}
	netSrc, err := os.ReadFile(*netPath)
	if err != nil {
		return fail(err)
	}
	res, err := core.Synthesize(string(flowcSrc), string(netSrc), nil)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "system %s: %d processes, %d places, %d transitions, %d task(s)\n",
		res.Sys.Name, len(res.Procs), len(res.Sys.Net.Places), len(res.Sys.Net.Transitions), len(res.Tasks))
	for i, s := range res.Schedules {
		fmt.Fprintf(stdout, "task %s: schedule %d nodes (%d await), %d segments, %d explored states (%d distinct markings)\n",
			res.Tasks[i].Name, len(s.Nodes), len(s.AwaitNodes()),
			len(res.Tasks[i].Segments), s.Stats.NodesCreated, s.Stats.DistinctMarkings)
		if *showSched {
			if err := s.Format(stdout); err != nil {
				return fail(err)
			}
		}
	}
	if *showBounds {
		fmt.Fprintln(stdout, "guaranteed channel bounds:")
		for _, ch := range res.Sys.Channels {
			fmt.Fprintf(stdout, "  %-12s %d\n", ch.Spec.Name, res.Bounds[ch.Place.ID])
		}
	}
	if err := writeTasks(stdout, res, *outDir, *emitDot, createFile); err != nil {
		return fail(err)
	}
	return 0
}

// createFile is how the command opens the files it writes.
func createFile(path string) (io.WriteCloser, error) { return os.Create(path) }

// writeTasks is the output step: each task's C, in res.Tasks order,
// printed to w when outDir is empty and otherwise written to
// <outDir>/<task>.c, then with emitDot each schedule's DOT to
// <outDir>/<task>.dot. Every file written is announced on w.
func writeTasks(w io.Writer, res *core.Result, outDir string, emitDot bool, create func(string) (io.WriteCloser, error)) error {
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	for _, t := range res.Tasks {
		code := res.Code[t.Name]
		if outDir == "" {
			fmt.Fprintf(w, "\n/* ==== %s.c ==== */\n%s", t.Name, code)
			continue
		}
		path := filepath.Join(outDir, t.Name+".c")
		if err := writeFile(create, path, func(f io.Writer) error {
			_, err := io.WriteString(f, code)
			return err
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	if !emitDot {
		return nil
	}
	for i, s := range res.Schedules {
		path := filepath.Join(outDir, res.Tasks[i].Name+".dot")
		if err := writeFile(create, path, s.Dot); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return nil
}

// writeFile creates path, fills it and closes it, reporting the first
// error of the three: a file whose Close fails is not written.
func writeFile(create func(string) (io.WriteCloser, error), path string, fill func(io.Writer) error) error {
	f, err := create(path)
	if err != nil {
		return err
	}
	err = fill(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
