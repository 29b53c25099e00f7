package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckOut: an explicit -out that names an existing file is
// refused with an error naming it; a new path and the default (empty)
// one pass.
func TestCheckOut(t *testing.T) {
	dir := t.TempDir()
	taken := filepath.Join(dir, "BENCH_2026-10-18.json")
	if err := os.WriteFile(taken, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkOut(taken); err == nil || !strings.Contains(err.Error(), taken) {
		t.Fatalf("checkOut(%s) = %v, want an error naming the file", taken, err)
	}
	for _, ok := range []string{"", filepath.Join(dir, "BENCH_2026-10-18-2.json")} {
		if err := checkOut(ok); err != nil {
			t.Fatalf("checkOut(%q) = %v, want nil", ok, err)
		}
	}
}

// TestGate: each benchmark's B/op and allocs/op pass within the
// tolerance on either side of the baseline, and fail above it
// (REGRESSION), below it (STALE, naming `make baseline`) or when the
// benchmark is missing from the run. The spread of 0.1% gives the
// minimum tolerance of 0.5%.
func TestGate(t *testing.T) {
	base := &Snapshot{Date: "2026-10-19", GoVersion: "go1.24.0", Benchmarks: map[string]BenchResult{
		"BenchmarkA": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 100},
	}}
	run := func(bytes, allocs float64) *Snapshot {
		return &Snapshot{Date: "2026-10-19", GoVersion: "go1.24.0", Benchmarks: map[string]BenchResult{
			"BenchmarkA": {NsPerOp: 90, BytesPerOp: bytes, AllocsPerOp: allocs, BytesSpread: 0.001, AllocsSpread: 0.001},
		}}
	}
	for _, c := range []struct {
		name   string
		cur    *Snapshot
		failed bool
		want   []string
	}{
		{"same", run(1000, 100), false, []string{"ok", "PASS"}},
		{"within-tolerance", run(1004, 99.6), false, []string{"+0.40%", "-0.40%", "PASS"}},
		{"bytes-regressed", run(1006, 100), true, []string{"REGRESSION", "regressed beyond tolerance"}},
		{"allocs-stale", run(1000, 99), true, []string{"STALE", "make baseline"}},
		{"missing", &Snapshot{Benchmarks: map[string]BenchResult{}}, true, []string{"BenchmarkA", "MISSING"}},
	} {
		var out strings.Builder
		if got := gate(&out, base, c.cur); got != c.failed {
			t.Errorf("%s: gate failed = %v, want %v\n%s", c.name, got, c.failed, out.String())
		}
		for _, w := range c.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: output lacks %q\n%s", c.name, w, out.String())
			}
		}
		if pass := strings.Contains(out.String(), "benchdiff: PASS"); pass == c.failed {
			t.Errorf("%s: PASS line printed = %v, want %v\n%s", c.name, pass, !c.failed, out.String())
		}
	}
}
