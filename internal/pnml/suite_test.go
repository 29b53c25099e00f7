package pnml_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/petri"
	"repro/internal/pnml"
)

// The PNML conformance suite: every vendored interchange net must
// produce a byte-identical ReachResult — same marking order, edges,
// clip flags, truncation — inline and on worker processes. This
// is the same determinism contract the dist matrix pins for FlowC-born
// nets, extended to imported ones. The dist configurations explore
// through petri.Net.ExploreDist on real worker processes
// (dist.SpawnLocal re-executes this test binary; TestMain routes the
// children into dist.MaybeWorker).

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
// serial Analyze is the baseline; spawned worker processes
// (ExploreDist, fingerprinted with pnml.Fingerprint) must reproduce its
// fingerprint exactly, fixture by fixture.
func TestPNMLSuite(t *testing.T) {
	files := suiteFixtures(t)
	optOf := func(f string) pnml.AnalyzeOptions {
		if opt, ok := suiteOpts[filepath.Base(f)]; ok {
			return opt
		}
		return defaultSuiteOpts
	}
	want := make(map[string]string, len(files))
	for _, f := range files {
		a, err := pnml.AnalyzeFile(f, optOf(f))
		if err != nil {
			t.Fatalf("serial %s: %v", filepath.Base(f), err)
		}
		want[f] = a.Fingerprint
	}

	t.Run("dist-procs-2", func(t *testing.T) {
		pool, err := dist.SpawnLocal(2)
		if err != nil {
			t.Fatalf("spawn 2 workers: %v", err)
		}
		defer pool.Close()
		for _, f := range files {
			got, err := fingerprintOn(pool, f, optOf(f))
			if err != nil {
				t.Fatalf("%s: %v", filepath.Base(f), err)
			}
			if got != want[f] {
				t.Errorf("%s: fingerprint %s, serial %s — ReachResult diverged", filepath.Base(f), got, want[f])
			}
		}
	})
}

// fingerprintOn is the fixture's fingerprint explored through
// ExploreDist on pool, with Analyze's exploration options.
func fingerprintOn(pool *dist.Pool, f string, opt pnml.AnalyzeOptions) (string, error) {
	src, err := os.ReadFile(f)
	if err != nil {
		return "", err
	}
	n, err := pnml.ParseBytes(src)
	if err != nil {
		return "", err
	}
	r, err := n.ExploreDist(pool, petri.ExploreOptions{MaxMarkings: opt.MaxMarkings,
		MaxTokensPerPlace: opt.MaxTokensPerPlace, FireSources: true})
	if err != nil {
		return "", err
	}
	return pnml.Fingerprint(r), nil
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

// philosophersFingerprint is what `qssbatch -pnml` prints for
// philosophers-4.pnml, and what docs/PNML.md shows.
const philosophersFingerprint = "3a08a95dd14cacc06195ec52cf63f2b5240bb5b6660d3653a1e790bbc0329d11"

// TestFingerprintPinned pins one fixture's fingerprint, so a change of
// its encoding cannot pass unnoticed, and checks that the docs show it.
func TestFingerprintPinned(t *testing.T) {
	a, err := pnml.AnalyzeFile(filepath.Join("testdata", "suite", "philosophers-4.pnml"), pnml.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != philosophersFingerprint {
		t.Errorf("philosophers-4 fingerprint %s, want %s", a.Fingerprint, philosophersFingerprint)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "PNML.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), "fingerprint: "+philosophersFingerprint) {
		t.Error("docs/PNML.md does not show philosophers-4's fingerprint")
	}
}

// refFingerprint is Fingerprint's encoding written out word by word:
// the SHA-256 of every word's uvarint, in Fingerprint's field order.
func refFingerprint(r *petri.ReachResult) string {
	var b []byte
	word := func(v int) { b = binary.AppendUvarint(b, uint64(v)) }
	flag := func(f bool) {
		if f {
			word(1)
		} else {
			word(0)
		}
	}
	word(r.Len())
	flag(r.Truncated)
	for id := 0; id < r.Len(); id++ {
		for _, v := range r.Store.At(petri.MarkID(id)) {
			word(int(v))
		}
		flag(r.Clipped[id])
		word(len(r.Edges[id]))
		for _, e := range r.Edges[id] {
			word(int(e.Trans))
			word(int(e.To))
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestFingerprintDistinguishes: results that differ only in one token
// count, 127 against 128 (the last one-byte count and the first
// two-byte one), or by one extra edge, get different fingerprints, and
// each fingerprint is refFingerprint's.
func TestFingerprintDistinguishes(t *testing.T) {
	result := func(count int32, edges ...petri.ReachEdge) *petri.ReachResult {
		s := petri.NewMarkingStore(3)
		s.Intern(petri.Marking{1, count, 0})
		s.Intern(petri.Marking{0, count, 1})
		return &petri.ReachResult{
			Store:   s,
			Edges:   [][]petri.ReachEdge{edges, {{Trans: 1, To: 0}}},
			Clipped: make([]bool, 2),
		}
	}
	edge := petri.ReachEdge{Trans: 0, To: 1}
	base := result(127, edge)
	if got, want := pnml.Fingerprint(base), refFingerprint(base); got != want {
		t.Errorf("base: fingerprint %s, reference encoding %s", got, want)
	}
	for name, r := range map[string]*petri.ReachResult{
		"count 128":  result(128, edge),
		"extra edge": result(127, edge, petri.ReachEdge{Trans: 2, To: 0}),
	} {
		got := pnml.Fingerprint(r)
		if got == pnml.Fingerprint(base) {
			t.Errorf("%s: fingerprint %s equals the base result's", name, got)
		}
		if want := refFingerprint(r); got != want {
			t.Errorf("%s: fingerprint %s, reference encoding %s", name, got, want)
		}
	}
}
