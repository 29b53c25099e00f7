// Command benchdiff is the benchmark-regression gate of the CI
// pipeline. It runs the tier-1 benchmarks -count >= 5 times at
// GOMAXPROCS=1 (`-cpu 1`, the setting bench_baseline.json is recorded
// at), writes a dated BENCH_<date>.json snapshot (ns/op, B/op,
// allocs/op, their spreads and custom metrics such as corpus apps/s),
// and gates B/op and allocs/op against the committed baseline JSON: a
// regression beyond the tolerance fails the run (and with it `make
// ci`).
//
// The snapshot goes to the ignored .bench_build/ directory, so a gate
// run leaves the working tree clean. A performance change that commits
// its snapshot writes it to the root with -out BENCH_<date>.json.
//
// Only the allocation dimensions gate. At a fixed GOMAXPROCS and Go
// release they repeat to within a fraction of a percent on any
// machine, so the tolerance is derived from the spread the runs
// themselves show: twice (max-min)/min over the -count runs, at least
// minTolerance and at most maxTolerance. ns/op is recorded as
// information only: it measures the machine as much as the code, and
// the repository benchmark (qssbench) carries time claims with
// alternating pairs instead.
//
// Usage:
//
//	go run ./cmd/benchdiff          # gate against bench_baseline.json
//	go run ./cmd/benchdiff -update  # rewrite the baseline in place
//	go run ./cmd/benchdiff -out BENCH_2026-10-18.json  # gate; snapshot to commit
//
// Each dimension keeps its minimum over the runs. B/op can move
// between Go releases, so compare on the baseline's go_version.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// BenchResult is the recorded outcome of one benchmark: the minimum of
// each dimension over the runs, the spread ((max-min)/min) of the two
// gated ones, and the custom metrics of the fastest run.
type BenchResult struct {
	NsPerOp      float64            `json:"ns_per_op"`
	BytesPerOp   float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp  float64            `json:"allocs_per_op,omitempty"`
	BytesSpread  float64            `json:"bytes_spread"`
	AllocsSpread float64            `json:"allocs_spread"`
	Metrics      map[string]float64 `json:"metrics,omitempty"`
}

// The gate's tolerance on B/op and allocs/op: twice the spread of the
// current runs, within [minTolerance, maxTolerance]. The floor absorbs
// the few bytes and allocations a runtime's background work adds to
// one run of otherwise identical work.
const (
	minTolerance = 0.005
	maxTolerance = 0.05
	minRuns      = 5
)

// snapshotDir holds the default snapshot; .gitignore lists it.
const snapshotDir = ".bench_build"

// Snapshot is the schema of BENCH_<date>.json and of the baseline.
type Snapshot struct {
	Date       string                 `json:"date"`
	GoVersion  string                 `json:"go_version"`
	Benchmarks map[string]BenchResult `json:"benchmarks"`
}

func main() {
	var (
		benchRe   = flag.String("bench", "BenchmarkSynthesisPFC$|BenchmarkCorpusSerial$|BenchmarkExploreLarge", "benchmarks to run (go test -bench regexp)")
		benchtime = flag.String("benchtime", "3x", "go test -benchtime per run")
		count     = flag.Int("count", minRuns, fmt.Sprintf("runs per benchmark (at least %d); each dimension keeps its minimum", minRuns))
		pkg       = flag.String("pkg", ".", "package holding the benchmarks")
		baseline  = flag.String("baseline", "bench_baseline.json", "committed baseline JSON")
		out       = flag.String("out", "", "snapshot path (default "+snapshotDir+"/BENCH_<date>.json)")
		update    = flag.Bool("update", false, "rewrite the baseline with this run instead of gating")
	)
	flag.Parse()
	if *count < minRuns {
		fatal(fmt.Errorf("-count %d: the tolerance needs the spread of at least %d runs", *count, minRuns))
	}

	cur, err := runBenchmarks(*benchRe, *benchtime, *count, *pkg)
	if err != nil {
		fatal(err)
	}
	if len(cur.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmarks matched %q", *benchRe))
	}

	outPath := *out
	if outPath == "" {
		outPath = filepath.Join(snapshotDir, "BENCH_"+cur.Date+".json")
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		fatal(err)
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
	if failed := gate(base, cur); failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

// runBenchmarks shells out to go test at GOMAXPROCS=1 and folds the
// repeated runs of each benchmark into one BenchResult.
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
	runs := map[string][]BenchResult{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if name, res, ok := parseBenchLine(sc.Text()); ok {
			runs[name] = append(runs[name], res)
		}
	}
	snap := &Snapshot{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		Benchmarks: map[string]BenchResult{},
	}
	for name, rs := range runs {
		snap.Benchmarks[name] = fold(rs)
	}
	return snap, sc.Err()
}

// fold summarizes the runs of one benchmark.
func fold(rs []BenchResult) BenchResult {
	out := rs[0]
	bmax, amax := out.BytesPerOp, out.AllocsPerOp
	for _, r := range rs[1:] {
		if r.NsPerOp < out.NsPerOp {
			out.NsPerOp, out.Metrics = r.NsPerOp, r.Metrics
		}
		out.BytesPerOp, bmax = min(out.BytesPerOp, r.BytesPerOp), max(bmax, r.BytesPerOp)
		out.AllocsPerOp, amax = min(out.AllocsPerOp, r.AllocsPerOp), max(amax, r.AllocsPerOp)
	}
	out.BytesSpread = spread(out.BytesPerOp, bmax)
	out.AllocsSpread = spread(out.AllocsPerOp, amax)
	return out
}

// spread returns (hi-lo)/lo, or 0 for a dimension the benchmark does
// not report.
func spread(lo, hi float64) float64 {
	if lo <= 0 {
		return 0
	}
	return (hi - lo) / lo
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

// gate prints a comparison table and reports whether any benchmark's
// B/op or allocs/op regressed beyond its tolerance, or went missing.
// ns/op and custom metrics are informational.
func gate(base, cur *Snapshot) (failed bool) {
	fmt.Printf("benchdiff: baseline %s (%s) vs current (%s); B/op and allocs/op gate at 2x the runs' spread, within %.1f%%..%.0f%%; ns/op is information\n",
		base.Date, base.GoVersion, cur.GoVersion, minTolerance*100, maxTolerance*100)
	for name, b := range base.Benchmarks {
		c, ok := cur.Benchmarks[name]
		if !ok {
			fmt.Printf("  %-40s MISSING from current run\n", name)
			failed = true
			continue
		}
		fmt.Printf("  %-40s %12.0f -> %12.0f ns/op      %+6.1f%%  info\n",
			name, b.NsPerOp, c.NsPerOp, 100*(c.NsPerOp-b.NsPerOp)/b.NsPerOp)
		for _, d := range []struct {
			unit              string
			base, cur, spread float64
		}{
			{"B/op", b.BytesPerOp, c.BytesPerOp, c.BytesSpread},
			{"allocs/op", b.AllocsPerOp, c.AllocsPerOp, c.AllocsSpread},
		} {
			if d.base <= 0 || d.cur <= 0 {
				continue
			}
			tol := min(max(2*d.spread, minTolerance), maxTolerance)
			delta := (d.cur - d.base) / d.base
			status := "ok"
			if delta > tol {
				status = "REGRESSION"
				failed = true
			}
			fmt.Printf("  %-40s %12.0f -> %12.0f %-9s %+6.2f%% (tolerance %.2f%%)  %s\n",
				"", d.base, d.cur, d.unit, delta*100, tol*100, status)
		}
	}
	if failed {
		fmt.Println("benchdiff: FAIL — B/op or allocs/op regressed beyond tolerance (compare on the baseline's Go release; refresh the baseline with -update if the change is intended)")
	} else {
		fmt.Println("benchdiff: PASS")
	}
	return failed
}
