package apps

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// Golden-file integration tests: the generated C of every example
// application is pinned byte-for-byte under testdata/golden/, so
// codegen drift — a renamed variable, a reordered segment, a changed
// buffer bound — is caught by plain `go test` instead of only by the
// fuzz/determinism harnesses. Regenerate intentionally with:
//
//	go test ./internal/apps -run TestGoldenCode -update
//
// and review the diff like any other source change. Each app also pins
// a MANIFEST of task names and guaranteed channel bounds, so a task
// appearing, disappearing or changing its contract fails even when the
// per-task files still match.

var update = flag.Bool("update", false, "rewrite the golden files with the current generator output")

// goldenApps lists the example programs (examples/* all synthesize one
// of these) in a fixed order.
var goldenApps = []struct {
	name  string
	flowc string
	spec  string
}{
	{"divisors", Divisors, DivisorsSpec},
	{"pixelpipe", PixelPipe, PixelPipeSpec},
	{"multirate", MultiRate, MultiRateSpec},
	{"falsepath_fixed", FalsePathFixed, FalsePathFixedSpec},
	{"pfc", PFC, PFCSpec},
}

// goldenManifest renders the stable per-app summary: tasks in name
// order and every named channel's statically guaranteed bound.
func goldenManifest(r *core.Result) string {
	var sb strings.Builder
	names := make([]string, 0, len(r.Code))
	for name := range r.Code {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(&sb, "tasks %d\n", len(names))
	for _, name := range names {
		task := r.TaskByName(name)
		fmt.Fprintf(&sb, "task %s segments %d nodes %d\n", name, len(task.Segments), len(r.Schedules[taskIndex(r, name)].Nodes))
	}
	type chb struct {
		name  string
		bound int
	}
	var chans []chb
	for _, ch := range r.Sys.Channels {
		chans = append(chans, chb{ch.Spec.Name, r.Bounds[ch.Place.ID]})
	}
	sort.Slice(chans, func(i, j int) bool { return chans[i].name < chans[j].name })
	for _, c := range chans {
		fmt.Fprintf(&sb, "channel %s bound %d\n", c.name, c.bound)
	}
	return sb.String()
}

func taskIndex(r *core.Result, name string) int {
	for i, t := range r.Tasks {
		if t.Name == name {
			return i
		}
	}
	return -1
}

func TestGoldenCode(t *testing.T) {
	for _, app := range goldenApps {
		t.Run(app.name, func(t *testing.T) {
			r, err := core.Synthesize(app.flowc, app.spec, nil)
			if err != nil {
				t.Fatalf("synthesize %s: %v", app.name, err)
			}
			dir := filepath.Join("testdata", "golden", app.name)
			files := map[string]string{"MANIFEST": goldenManifest(r)}
			for name, code := range r.Code {
				files[name+".c"] = code
			}
			if *update {
				if err := os.RemoveAll(dir); err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				for fname, content := range files {
					if err := os.WriteFile(filepath.Join(dir, fname), []byte(content), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				t.Logf("updated %s (%d files)", dir, len(files))
				return
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatalf("golden dir missing (run with -update to create): %v", err)
			}
			onDisk := map[string]bool{}
			for _, e := range entries {
				onDisk[e.Name()] = true
			}
			for fname, content := range files {
				if !onDisk[fname] {
					t.Errorf("generated %s has no golden file (run with -update and review)", fname)
					continue
				}
				delete(onDisk, fname)
				want, err := os.ReadFile(filepath.Join(dir, fname))
				if err != nil {
					t.Fatal(err)
				}
				if string(want) != content {
					t.Errorf("%s/%s drifted from golden (run with -update and review the diff):\n--- golden\n%s\n--- generated\n%s",
						app.name, fname, want, content)
				}
			}
			for fname := range onDisk {
				t.Errorf("stale golden file %s/%s: no longer generated (run with -update)", app.name, fname)
			}
		})
	}
}
