package core_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/sched"
)

// The determinism matrix of synthesis: the frozen store tier
// (sched.Options.Freeze) and the source-level pool (Options.Workers)
// must leave schedules, generated C and bounds byte-identical to the
// all-hot run with one worker.

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
// every example app with the frozen store tier on, with four source
// workers, and with both.
func TestDeterminismMatrix(t *testing.T) {
	want := make(map[string]string, len(matrixApps))
	for _, app := range matrixApps {
		r, err := core.Synthesize(app.flowc, app.spec, &core.Options{Workers: 1, DisableCache: true})
		if err != nil {
			t.Fatalf("serial %s: %v", app.name, err)
		}
		want[app.name] = fingerprint(t, r)
	}
	configs := []struct {
		name    string
		workers int
		freeze  bool
	}{
		{"serial-frozen", 1, true},
		{"workers-4", 4, false},
		{"workers-4-frozen", 4, true},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			opt := &core.Options{Workers: cfg.workers, DisableCache: true, Sched: &sched.Options{Freeze: cfg.freeze}}
			for _, app := range matrixApps {
				r, err := core.Synthesize(app.flowc, app.spec, opt)
				if err != nil {
					t.Fatalf("%s under %s: %v", app.name, cfg.name, err)
				}
				if got := fingerprint(t, r); got != want[app.name] {
					t.Errorf("%s under %s: output differs from serial\n%s",
						app.name, cfg.name, firstDiff(want[app.name], got))
				}
				if frozen := r.Schedules[0].Stats.StoreFrozenBytes > 0; frozen != cfg.freeze {
					t.Errorf("%s under %s: %d frozen store bytes, want frozen=%v",
						app.name, cfg.name, r.Schedules[0].Stats.StoreFrozenBytes, cfg.freeze)
				}
			}
		})
	}
}

// sweepConfig keeps the 50-app corpus sweep light enough for -race on
// a small container while still covering every generator pattern.
func sweepConfig() corpus.Config {
	cfg := corpus.DefaultConfig()
	cfg.MaxPipelines = 2
	cfg.MaxStages = 2
	cfg.MaxOps = 2
	cfg.MaxWidth = 2
	return cfg
}

// TestCorpusSweepFrozen: the freeze/thaw property sweep — a 50-app
// corpus synthesizes to byte-identical code with the frozen store tier
// on, every level frozen to disk and thawed on demand, versus the
// all-hot serial baseline.
func TestCorpusSweepFrozen(t *testing.T) {
	appsList := corpus.GenerateCorpus(1234, 50, sweepConfig())
	serialOpt := &core.Options{Workers: 1, DisableCache: true}
	frozenOpt := &core.Options{Workers: 1, DisableCache: true, Sched: &sched.Options{Freeze: true}}
	for i, app := range appsList {
		want, serr := core.Synthesize(app.FlowC, app.Spec, serialOpt)
		got, ferr := core.Synthesize(app.FlowC, app.Spec, frozenOpt)
		if (serr == nil) != (ferr == nil) {
			t.Fatalf("app %d (%s): all-hot err %v, frozen err %v", i, app.Name, serr, ferr)
		}
		if serr != nil {
			if serr.Error() != ferr.Error() {
				t.Fatalf("app %d (%s): divergent errors\n all-hot: %v\n frozen:  %v", i, app.Name, serr, ferr)
			}
			continue
		}
		if fw, fg := fingerprint(t, want), fingerprint(t, got); fw != fg {
			t.Errorf("app %d (%s): frozen output differs from all-hot\n%s", i, app.Name, firstDiff(fw, fg))
		}
	}
}
