package sim

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/core"
)

// Experiment drivers regenerating the paper's evaluation (Section 8):
// Figure 20 (execution time vs. channel buffer size), Table 1 (cycles vs.
// frame count) and Table 2 (code size). Each returns structured rows and
// can print them in the paper's layout.

// Workload describes the synthetic video workload: Frames triggers, each
// carrying a frame id; the controllable coefficient input receives
// frame%8+1.
type Workload struct {
	Frames int
}

// feed pushes the workload into a baseline run.
func (w Workload) feed(b *Baseline) {
	for f := 0; f < w.Frames; f++ {
		b.Input("init").Push(int64(f))
		b.Input("cin").Push(int64(f%8 + 1))
	}
}

// RunBaselinePFC executes the 4-process implementation of the PFC system
// and returns total cycles.
func RunBaselinePFC(r *core.Result, w Workload, capacity int, cost *CostModel, inline bool) (int64, error) {
	b := NewBaseline(r.Sys, cost, capacity)
	b.Inline = inline
	w.feed(b)
	cycles, err := b.Run()
	if err != nil {
		return 0, err
	}
	if got, want := len(b.Output("display").Vals), w.Frames*apps.FramePixels; got != want {
		return 0, fmt.Errorf("sim: baseline produced %d pixels, want %d", got, want)
	}
	return cycles, nil
}

// RunTaskPFC executes the synthesized single task and returns total
// cycles.
func RunTaskPFC(r *core.Result, w Workload, cost *CostModel) (int64, error) {
	te, err := NewTaskExec(r.Sys, r.Tasks[0], cost)
	if err != nil {
		return 0, err
	}
	for f := 0; f < w.Frames; f++ {
		te.Input("cin").Push(int64(f%8 + 1))
		if err := te.Trigger(int64(f)); err != nil {
			return 0, err
		}
	}
	return te.Machine.Cycles, nil
}

// Fig20Point is one point of Figure 20.
type Fig20Point struct {
	Model    string
	Capacity int
	Cycles   int64
}

// Figure20 sweeps channel buffer sizes for the 4-task implementation
// under the three cost models, plus the single-task points (capacity 0
// denotes the synthesized task with its unit buffers).
func Figure20(r *core.Result, frames int, capacities []int) ([]Fig20Point, error) {
	var out []Fig20Point
	w := Workload{Frames: frames}
	for _, cost := range Presets() {
		for _, cap := range capacities {
			cycles, err := RunBaselinePFC(r, w, cap, cost, true)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig20Point{Model: cost.Name, Capacity: cap, Cycles: cycles})
		}
		cycles, err := RunTaskPFC(r, w, cost)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig20Point{Model: cost.Name, Capacity: 0, Cycles: cycles})
	}
	return out, nil
}

// PrintFigure20 renders the sweep as aligned columns.
func PrintFigure20(w io.Writer, pts []Fig20Point) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "Figure 20: execution time (cycles) vs channel buffer size, 10 frames")
	fmt.Fprintln(bw, "buffer     pfc        pfc-O      pfc-O2")
	byCap := map[int]map[string]int64{}
	var caps []int
	for _, p := range pts {
		if byCap[p.Capacity] == nil {
			byCap[p.Capacity] = map[string]int64{}
			caps = append(caps, p.Capacity)
		}
		byCap[p.Capacity][p.Model] = p.Cycles
	}
	for _, c := range caps {
		row := byCap[c]
		label := fmt.Sprintf("%-10d", c)
		if c == 0 {
			label = "task      "
		}
		fmt.Fprintf(bw, "%s %-10d %-10d %-10d\n", label, row["pfc"], row["pfc-O"], row["pfc-O2"])
	}
	return bw.Flush()
}

// Table1Row is one row of Table 1: kilocycles for a frame count under
// the three models, single task vs 4 processes.
type Table1Row struct {
	Frames int
	// Task and Procs are kilocycles per model name.
	Task  map[string]int64
	Procs map[string]int64
	Ratio map[string]float64
}

// Table1 reproduces the frame-count sweep (the 4-process system uses
// buffers of size 100, as in the paper).
func Table1(r *core.Result, frameCounts []int) ([]Table1Row, error) {
	var out []Table1Row
	for _, frames := range frameCounts {
		row := Table1Row{
			Frames: frames,
			Task:   map[string]int64{},
			Procs:  map[string]int64{},
			Ratio:  map[string]float64{},
		}
		w := Workload{Frames: frames}
		for _, cost := range Presets() {
			task, err := RunTaskPFC(r, w, cost)
			if err != nil {
				return nil, err
			}
			procs, err := RunBaselinePFC(r, w, 100, cost, true)
			if err != nil {
				return nil, err
			}
			row.Task[cost.Name] = task / 1000
			row.Procs[cost.Name] = procs / 1000
			row.Ratio[cost.Name] = float64(procs) / float64(task)
		}
		out = append(out, row)
	}
	return out, nil
}

// PrintTable1 renders Table 1 in the paper's layout (kcycles).
func PrintTable1(w io.Writer, rows []Table1Row) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "Table 1: kcycles for different numbers of frames (buffers = 100 for 4 procs)")
	fmt.Fprintln(bw, "          pfc                     pfc-O                   pfc-O2")
	fmt.Fprintln(bw, "frames    1task  4procs  ratio   1task  4procs  ratio   1task  4procs  ratio")
	for _, r := range rows {
		fmt.Fprintf(bw, "%-8d", r.Frames)
		for _, m := range []string{"pfc", "pfc-O", "pfc-O2"} {
			fmt.Fprintf(bw, "  %-6d %-7d %-5.1f", r.Task[m], r.Procs[m], r.Ratio[m])
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// Table2Row is one row of Table 2: code sizes in bytes.
type Table2Row struct {
	Model   string
	Task    int
	PerProc map[string]int
	Total   int
	Ratio   float64
}

// Table2 reproduces the code-size comparison (inlined communication
// primitives, as in the paper's main comparison).
func Table2(r *core.Result) []Table2Row {
	var out []Table2Row
	for _, sm := range SizeModels() {
		total, per := sm.BaselineSize(r.Sys, true)
		task := sm.TaskSize(r.Tasks[0], r.Sys)
		out = append(out, Table2Row{
			Model:   sm.Name,
			Task:    task,
			PerProc: per,
			Total:   total,
			Ratio:   float64(total) / float64(task),
		})
	}
	return out
}

// PrintTable2 renders Table 2 in the paper's layout.
func PrintTable2(w io.Writer, rows []Table2Row) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "Table 2: code size (bytes), inlined communication primitives")
	fmt.Fprintln(bw, "model     1task   contr   prod    filt    cons    total   ratio")
	for _, r := range rows {
		fmt.Fprintf(bw, "%-8s  %-6d  %-6d  %-6d  %-6d  %-6d  %-6d  %.1f\n",
			r.Model, r.Task,
			r.PerProc["controller"], r.PerProc["producer"],
			r.PerProc["filter"], r.PerProc["consumer"],
			r.Total, r.Ratio)
	}
	return bw.Flush()
}
