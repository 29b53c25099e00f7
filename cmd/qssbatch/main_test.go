package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
)

// TestBatchFlagValidation: contradictory or out-of-range flag
// combinations are rejected with a descriptive error instead of being
// silently clamped.
func TestBatchFlagValidation(t *testing.T) {
	ok := func(f batchFlags) bool { return f.validate() == nil }
	valid := []batchFlags{
		{},
		{n: 50, workers: 4},
	}
	for i, f := range valid {
		if !ok(f) {
			t.Errorf("valid combination %d rejected: %v", i, f.validate())
		}
	}
	invalid := []batchFlags{
		{n: -1},
		{workers: -2},
		{n: -5, workers: 3}, // first failure still reported
	}
	for i, f := range invalid {
		if ok(f) {
			t.Errorf("invalid combination %d (%+v) accepted", i, f)
		}
	}
}

// TestBatchPNMLFlagValidation: -pnml switches modes, so corpus flags
// are rejected when explicitly set, exploration flags compose, and the
// -pnml-only caps require -pnml. The explicit map mirrors what
// flag.Visit records after Parse.
func TestBatchPNMLFlagValidation(t *testing.T) {
	set := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	cases := []struct {
		name    string
		f       batchFlags
		wantErr bool
	}{
		{name: "pnml", f: batchFlags{pnml: multiFlag{"net.pnml"}, explicit: set("pnml")}},
		{name: "pnml-two-files", f: batchFlags{pnml: multiFlag{"a.pnml", "b.pnml"}, explicit: set("pnml")}},
		{name: "pnml-with-caps", f: batchFlags{pnml: multiFlag{"net.pnml"}, pnmlMaxMarkings: 5000, pnmlMaxTokens: 4,
			explicit: set("pnml", "pnml-max-markings", "pnml-max-tokens")}},
		{name: "emit-pnml", f: batchFlags{n: 10, emitPNML: "/tmp/out", explicit: set("n", "emit-pnml")}},

		{name: "pnml-vs-n", f: batchFlags{pnml: multiFlag{"net.pnml"}, n: 5,
			explicit: set("pnml", "n")}, wantErr: true},
		{name: "pnml-vs-seed", f: batchFlags{pnml: multiFlag{"net.pnml"},
			explicit: set("pnml", "seed")}, wantErr: true},
		{name: "pnml-vs-shape", f: batchFlags{pnml: multiFlag{"net.pnml"},
			explicit: set("pnml", "stages")}, wantErr: true},
		{name: "pnml-vs-compare", f: batchFlags{pnml: multiFlag{"net.pnml"},
			explicit: set("pnml", "compare")}, wantErr: true},
		{name: "pnml-vs-emit-pnml", f: batchFlags{pnml: multiFlag{"net.pnml"}, emitPNML: "/tmp/out",
			explicit: set("pnml", "emit-pnml")}, wantErr: true},
		{name: "pnml-vs-workers", f: batchFlags{pnml: multiFlag{"net.pnml"}, workers: 4,
			explicit: set("pnml", "workers")}, wantErr: true},
		{name: "caps-without-pnml", f: batchFlags{pnmlMaxTokens: 4,
			explicit: set("pnml-max-tokens")}, wantErr: true},
		{name: "negative-max-markings", f: batchFlags{pnml: multiFlag{"net.pnml"}, pnmlMaxMarkings: -1,
			explicit: set("pnml", "pnml-max-markings")}, wantErr: true},
		{name: "negative-max-tokens", f: batchFlags{pnml: multiFlag{"net.pnml"}, pnmlMaxTokens: -1,
			explicit: set("pnml", "pnml-max-tokens")}, wantErr: true},
		{name: "emit-pnml-vs-compare", f: batchFlags{emitPNML: "/tmp/out",
			explicit: set("emit-pnml", "compare")}, wantErr: true},
	}
	for _, c := range cases {
		err := c.f.validate()
		if (err != nil) != c.wantErr {
			t.Errorf("%s: validate() err = %v, wantErr %v", c.name, err, c.wantErr)
		}
	}
}

// TestEmitPNMLWriteError: a document that cannot be written fails the
// export, which names the file and exits 1, instead of reporting every
// net as exported.
func TestEmitPNMLWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "app000.pnml")); err != nil {
		t.Fatal(err)
	}
	if code := emitCorpusPNML(dir, 1, 2, corpus.DefaultConfig()); code != 1 {
		t.Fatalf("emitCorpusPNML into /dev/full: exit code %d, want 1", code)
	}
}
