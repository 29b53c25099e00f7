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
