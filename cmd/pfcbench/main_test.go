package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/petri"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden with the current output of -all")

// TestPFCBenchFlagValidation: contradictory or out-of-range flag
// combinations are rejected with a descriptive error instead of being
// silently clamped.
func TestPFCBenchFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		f       benchFlags
		wantErr bool
	}{
		{name: "defaults", f: benchFlags{frames: 10, anyOutput: true}},
		{name: "no-output", f: benchFlags{frames: 10}, wantErr: true},
		{name: "zero-frames", f: benchFlags{frames: 0, anyOutput: true}, wantErr: true},
	}
	for _, c := range cases {
		err := c.f.validate()
		if (err != nil) != c.wantErr {
			t.Errorf("%s: validate() err = %v, wantErr %v", c.name, err, c.wantErr)
		}
	}
}

// TestAllGolden pins the paper's evaluation as pfcbench -all prints it:
// the synthesis summary, Figure 20, Table 1 and Table 2, byte for byte.
// Regenerate intentionally with
//
//	go test ./cmd/pfcbench -run TestAllGolden -update
//
// and review the diff like any other source change.
func TestAllGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("pfcbench -all: exit %d: %s", code, stderr.Bytes())
	}
	path := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("pfcbench -all drifted from %s (run with -update and review the diff):\n--- golden\n%s\n--- output\n%s", path, want, stdout.Bytes())
	}
}

// TestChannelBounds: the summary says "all channel bounds = 1" only
// when every channel's bound is 1, and names each bound otherwise.
func TestChannelBounds(t *testing.T) {
	result := func(bounds ...int) *core.Result {
		res := &core.Result{Sys: &link.System{}}
		for i, b := range bounds {
			res.Sys.Channels = append(res.Sys.Channels, &link.ChannelInfo{
				Spec:  link.ChannelSpec{Name: string(rune('A' + i))},
				Place: &petri.Place{ID: i},
			})
			res.Bounds = append(res.Bounds, b)
		}
		return res
	}
	for _, c := range []struct {
		bounds []int
		want   string
	}{
		{[]int{1, 1, 1}, "all channel bounds = 1"},
		{[]int{1, 2}, "channel bounds A=1 B=2"},
		{[]int{3}, "channel bounds A=3"},
	} {
		if got := channelBounds(result(c.bounds...)); got != c.want {
			t.Errorf("bounds %v: %q, want %q", c.bounds, got, c.want)
		}
	}
}
