package pnml_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dist"
	"repro/internal/pnml"
)

// The PNML conformance suite: every vendored interchange net must
// produce a byte-identical ReachResult — same marking order, edges,
// clip flags, truncation — under every execution strategy. This is the
// same determinism contract the dist matrix pins for FlowC-born nets,
// extended to imported ones. The dist configurations spawn real worker
// processes (dist.SpawnLocal re-executes this test binary; TestMain
// routes the children into dist.MaybeWorker).

func TestMain(m *testing.M) {
	dist.MaybeWorker()
	os.Exit(m.Run())
}

// suiteOpts gives each fixture its exploration budget. Nets absent
// from the map use the default; unbounded-counter MUST carry a token
// cap or exploration never terminates.
var suiteOpts = map[string]pnml.AnalyzeOptions{
	"unbounded-counter.pnml": {MaxMarkings: 4000, MaxTokensPerPlace: 6},
	"multirate-burst.pnml":   {MaxMarkings: 50000},
}

var defaultSuiteOpts = pnml.AnalyzeOptions{MaxMarkings: 100000}

// suiteFixtures globs the vendored nets and enforces the suite floor.
func suiteFixtures(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "suite", "*.pnml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 5 {
		t.Fatalf("suite has %d fixtures, want >= 5", len(files))
	}
	return files
}

// TestPNMLSuite is the conformance matrix `make pnml-suite` runs in CI:
// serial is the baseline; spawned worker processes and the frozen
// store tier must reproduce its fingerprint exactly, fixture by
// fixture.
func TestPNMLSuite(t *testing.T) {
	files := suiteFixtures(t)
	want := make(map[string]string, len(files))
	for _, f := range files {
		opt := suiteOpts[filepath.Base(f)]
		if opt.MaxMarkings == 0 {
			opt = defaultSuiteOpts
		}
		a, err := pnml.AnalyzeFile(f, opt)
		if err != nil {
			t.Fatalf("serial %s: %v", filepath.Base(f), err)
		}
		want[f] = a.Fingerprint
	}

	configs := []struct {
		name   string
		procs  int
		freeze bool
	}{
		{name: "dist-procs-2", procs: 2},
		{name: "serial-frozen", freeze: true},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			var pool *dist.Pool
			if cfg.procs > 0 {
				if cfg.freeze {
					t.Setenv(dist.EnvFreeze, "1")
				}
				var err error
				pool, err = dist.SpawnLocal(cfg.procs)
				if err != nil {
					t.Fatalf("spawn %d workers: %v", cfg.procs, err)
				}
				defer pool.Close()
			}
			for _, f := range files {
				opt := suiteOpts[filepath.Base(f)]
				if opt.MaxMarkings == 0 {
					opt = defaultSuiteOpts
				}
				opt.FreezeLevels = cfg.freeze
				if pool != nil {
					opt.Dist = pool
				}
				a, err := pnml.AnalyzeFile(f, opt)
				if err != nil {
					t.Fatalf("%s under %s: %v", filepath.Base(f), cfg.name, err)
				}
				if a.Fingerprint != want[f] {
					t.Errorf("%s under %s: fingerprint %s, serial %s — ReachResult diverged",
						filepath.Base(f), cfg.name, a.Fingerprint, want[f])
				}
			}
		})
	}
}

// TestPNMLRoundTrip: export -> import -> export is a byte-for-byte
// fixed point for every suite fixture, and the reimported net explores
// to the same fingerprint as the original import.
func TestPNMLRoundTrip(t *testing.T) {
	for _, f := range suiteFixtures(t) {
		name := filepath.Base(f)
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			n1, err := pnml.ParseBytes(src)
			if err != nil {
				t.Fatal(err)
			}
			b1, err := pnml.ExportBytes(n1)
			if err != nil {
				t.Fatal(err)
			}
			n2, err := pnml.ParseBytes(b1)
			if err != nil {
				t.Fatalf("reimport of exported net failed: %v", err)
			}
			b2, err := pnml.ExportBytes(n2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("export -> import -> export is not a fixed point:\n-- first --\n%s\n-- second --\n%s", b1, b2)
			}
			opt := suiteOpts[name]
			if opt.MaxMarkings == 0 {
				opt = defaultSuiteOpts
			}
			a1, err := pnml.Analyze(n1, opt)
			if err != nil {
				t.Fatal(err)
			}
			a2, err := pnml.Analyze(n2, opt)
			if err != nil {
				t.Fatal(err)
			}
			if a1.Fingerprint != a2.Fingerprint {
				t.Errorf("reimported net explores differently: %s vs %s", a2.Fingerprint, a1.Fingerprint)
			}
		})
	}
}
