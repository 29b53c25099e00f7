package core_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
)

// The determinism matrix of synthesis: the source-level pool
// (Options.Workers) must leave schedules, generated C and bounds
// byte-identical to the run with one worker.

// fingerprint renders everything downstream consumers depend on: task
// names, generated C, guaranteed bounds and the full schedule text.
func fingerprint(t *testing.T, r *core.Result) string {
	t.Helper()
	var sb strings.Builder
	names := make([]string, 0, len(r.Code))
	for name := range r.Code {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "== task %s ==\n%s", name, r.Code[name])
	}
	fmt.Fprintf(&sb, "bounds %v\n", r.Bounds)
	for _, s := range r.Schedules {
		if err := s.Format(&sb); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  serial: %q\n  this:   %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(wl), len(gl))
}

var matrixApps = []struct {
	name  string
	flowc string
	spec  string
}{
	{"divisors", apps.Divisors, apps.DivisorsSpec},
	{"pixelpipe", apps.PixelPipe, apps.PixelPipeSpec},
	{"multirate", apps.MultiRate, apps.MultiRateSpec},
	{"falsepath_fixed", apps.FalsePathFixed, apps.FalsePathFixedSpec},
	{"pfc", apps.PFC, apps.PFCSpec},
}

// TestDeterminismMatrix: byte-identical generated C and schedules for
// every example app with four source workers.
func TestDeterminismMatrix(t *testing.T) {
	want := make(map[string]string, len(matrixApps))
	for _, app := range matrixApps {
		r, err := core.Synthesize(app.flowc, app.spec, &core.Options{Workers: 1, DisableCache: true})
		if err != nil {
			t.Fatalf("serial %s: %v", app.name, err)
		}
		want[app.name] = fingerprint(t, r)
	}
	t.Run("workers-4", func(t *testing.T) {
		opt := &core.Options{Workers: 4, DisableCache: true}
		for _, app := range matrixApps {
			r, err := core.Synthesize(app.flowc, app.spec, opt)
			if err != nil {
				t.Fatalf("%s: %v", app.name, err)
			}
			if got := fingerprint(t, r); got != want[app.name] {
				t.Errorf("%s: output differs from serial\n%s", app.name, firstDiff(want[app.name], got))
			}
		}
	})
}
