// Command benchdiff is the benchmark-regression gate of the CI
// pipeline. It runs the tier-1 benchmarks at GOMAXPROCS=1 (`-cpu 1`,
// the setting bench_baseline.json is recorded at), writes a dated
// BENCH_<date>.json snapshot (ns/op, B/op, allocs/op and custom metrics
// such as corpus apps/s), and compares ns/op, B/op and allocs/op
// against the committed baseline JSON: a regression beyond the
// tolerance on any of the three fails the run (and with it `make ci`).
// B/op and allocs/op are exact at a fixed GOMAXPROCS, so they share the
// -alloc-tolerance gate; ns/op has its own -tolerance.
//
// Usage:
//
//	go run ./cmd/benchdiff                  # gate against bench_baseline.json
//	go run ./cmd/benchdiff -update          # rewrite the baseline in place
//	go run ./cmd/benchdiff -tolerance 0.5   # loosen the time gate
//	go run ./cmd/benchdiff -alloc-tolerance 0.5  # loosen the B/op and allocs/op gate
//
// Each benchmark runs -count times and the best (minimum) ns/op is
// compared, which filters scheduler noise on shared machines the same
// way benchstat's min-based deltas do.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// BenchResult is the recorded outcome of one benchmark.
type BenchResult struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the schema of BENCH_<date>.json and of the baseline.
type Snapshot struct {
	Date       string                 `json:"date"`
	GoVersion  string                 `json:"go_version"`
	Benchmarks map[string]BenchResult `json:"benchmarks"`
}

func main() {
	var (
		benchRe        = flag.String("bench", "BenchmarkSynthesisPFC$|BenchmarkCorpusSerial$|BenchmarkExploreLarge", "benchmarks to run (go test -bench regexp)")
		benchtime      = flag.String("benchtime", "3x", "go test -benchtime per run")
		count          = flag.Int("count", 2, "runs per benchmark; the fastest is kept")
		pkg            = flag.String("pkg", ".", "package holding the benchmarks")
		baseline       = flag.String("baseline", "bench_baseline.json", "committed baseline JSON")
		out            = flag.String("out", "", "snapshot path (default BENCH_<date>.json)")
		tolerance      = flag.Float64("tolerance", 0.20, "allowed ns/op regression fraction")
		allocTolerance = flag.Float64("alloc-tolerance", 0.20, "allowed B/op and allocs/op regression fraction")
		update         = flag.Bool("update", false, "rewrite the baseline with this run instead of gating")
	)
	flag.Parse()

	cur, err := runBenchmarks(*benchRe, *benchtime, *count, *pkg)
	if err != nil {
		fatal(err)
	}
	if len(cur.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmarks matched %q", *benchRe))
	}

	outPath := *out
	if outPath == "" {
		outPath = "BENCH_" + cur.Date + ".json"
	}
	if err := writeJSON(outPath, cur); err != nil {
		fatal(err)
	}
	fmt.Printf("benchdiff: wrote %s (%d benchmarks)\n", outPath, len(cur.Benchmarks))

	if *update {
		if err := writeJSON(*baseline, cur); err != nil {
			fatal(err)
		}
		fmt.Printf("benchdiff: baseline %s updated\n", *baseline)
		return
	}

	base, err := readBaseline(*baseline)
	if err != nil {
		fatal(fmt.Errorf("%w (run with -update to create it)", err))
	}
	if failed := gate(base, cur, *tolerance, *allocTolerance); failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

// runBenchmarks shells out to go test at GOMAXPROCS=1 and folds
// repeated runs of the same benchmark to the fastest observation.
func runBenchmarks(benchRe, benchtime string, count int, pkg string) (*Snapshot, error) {
	args := []string{"test", "-run", "^$", "-bench", benchRe, "-benchmem", "-cpu", "1",
		"-benchtime", benchtime, "-count", strconv.Itoa(count), pkg}
	fmt.Printf("benchdiff: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench: %w\n%s", err, buf.String())
	}
	snap := &Snapshot{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		Benchmarks: map[string]BenchResult{},
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		name, res, ok := parseBenchLine(sc.Text())
		if !ok {
			continue
		}
		if prev, seen := snap.Benchmarks[name]; seen && prev.NsPerOp <= res.NsPerOp {
			continue
		}
		snap.Benchmarks[name] = res
	}
	return snap, sc.Err()
}

// benchName matches "BenchmarkFoo" or "BenchmarkFoo/sub-8" at the start
// of a benchmark result line; the trailing -P GOMAXPROCS suffix is
// stripped so baselines survive machine changes.
var benchName = regexp.MustCompile(`^(Benchmark\S*?)(-\d+)?$`)

// parseBenchLine decodes one `go test -bench` output line:
//
//	BenchmarkSynthesisPFC  5  49338658 ns/op  57957161 B/op  4095 allocs/op
//	BenchmarkCorpusSerial  1  72763526 ns/op  3.298 apps/s  ...
func parseBenchLine(line string) (string, BenchResult, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", BenchResult{}, false
	}
	m := benchName.FindStringSubmatch(f[0])
	if m == nil {
		return "", BenchResult{}, false
	}
	res := BenchResult{Metrics: map[string]float64{}}
	seenNs := false
	// Fields come in (value, unit) pairs after the iteration count.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", BenchResult{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
			seenNs = true
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		default:
			res.Metrics[unit] = v
		}
	}
	if !seenNs {
		return "", BenchResult{}, false
	}
	if len(res.Metrics) == 0 {
		res.Metrics = nil
	}
	return m[1], res, true
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readBaseline(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return &s, nil
}

// gate prints a comparison table and reports whether any gated
// benchmark regressed beyond the tolerances. ns/op, B/op and allocs/op
// are failing dimensions (an allocation regression on a hot path is a
// real regression even when a fast machine hides the time cost); custom
// metrics are informational.
func gate(base, cur *Snapshot, tolerance, allocTolerance float64) (failed bool) {
	fmt.Printf("benchdiff: baseline %s (%s) vs current (%s), tolerance %.0f%% ns/op, %.0f%% B/op and allocs/op\n",
		base.Date, base.GoVersion, cur.GoVersion, tolerance*100, allocTolerance*100)
	for name, b := range base.Benchmarks {
		c, ok := cur.Benchmarks[name]
		if !ok {
			fmt.Printf("  %-40s MISSING from current run\n", name)
			failed = true
			continue
		}
		delta := (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		status := "ok"
		if delta > tolerance {
			status = "REGRESSION"
			failed = true
		}
		fmt.Printf("  %-40s %12.0f -> %12.0f ns/op  %+6.1f%%  %s\n",
			name, b.NsPerOp, c.NsPerOp, delta*100, status)
		for _, d := range []struct {
			unit      string
			base, cur float64
		}{
			{"B/op", b.BytesPerOp, c.BytesPerOp},
			{"allocs/op", b.AllocsPerOp, c.AllocsPerOp},
		} {
			if d.base <= 0 || d.cur <= 0 {
				continue
			}
			adelta := (d.cur - d.base) / d.base
			astatus := "ok"
			if adelta > allocTolerance {
				astatus = "REGRESSION"
				failed = true
			}
			fmt.Printf("  %-40s %12.0f -> %12.0f %-9s %+6.1f%%  %s\n",
				"", d.base, d.cur, d.unit, adelta*100, astatus)
		}
	}
	if failed {
		fmt.Println("benchdiff: FAIL — ns/op, B/op or allocs/op regressed beyond tolerance (rerun on an idle machine, or refresh the baseline with -update if the change is intended)")
	} else {
		fmt.Println("benchdiff: PASS")
	}
	return failed
}
