package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
)

// threeTaskApp is app003 of the seed-1 default corpus: a system of
// three tasks, whose Code map has no order of its own.
func threeTaskApp(t *testing.T) (*corpus.App, *core.Result) {
	t.Helper()
	app := corpus.GenerateCorpus(1, 10, corpus.DefaultConfig())[3]
	res, err := core.Synthesize(app.FlowC, app.Spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) != 3 {
		t.Fatalf("%s has %d tasks, want 3", app.Name, len(res.Tasks))
	}
	return app, res
}

var (
	cHeader   = regexp.MustCompile(`(?m)^/\* ==== (\S+)\.c ==== \*/$`)
	wroteLine = regexp.MustCompile(`(?m)^wrote .*/([^/\n]+)$`)
)

// matches returns the first group of every match of re in s.
func matches(re *regexp.Regexp, s string) []string {
	var out []string
	for _, m := range re.FindAllStringSubmatch(s, -1) {
		out = append(out, m[1])
	}
	return out
}

// TestOutputFollowsTaskOrder: the output step prints the C blocks, and
// announces the files it writes, in res.Tasks order every time.
func TestOutputFollowsTaskOrder(t *testing.T) {
	_, res := threeTaskApp(t)
	var names, files []string
	for _, task := range res.Tasks {
		names = append(names, task.Name)
		files = append(files, task.Name+".c")
	}
	for _, task := range res.Tasks {
		files = append(files, task.Name+".dot")
	}
	dir := t.TempDir()
	for i := 0; i < 50; i++ {
		var out bytes.Buffer
		if err := writeTasks(&out, res, "", false, createFile); err != nil {
			t.Fatal(err)
		}
		if got := matches(cHeader, out.String()); !slices.Equal(got, names) {
			t.Fatalf("run %d printed tasks %v, want %v", i, got, names)
		}
		out.Reset()
		if err := writeTasks(&out, res, dir, true, createFile); err != nil {
			t.Fatal(err)
		}
		if got := matches(wroteLine, out.String()); !slices.Equal(got, files) {
			t.Fatalf("run %d wrote %v, want %v", i, got, files)
		}
	}
	for _, task := range res.Tasks {
		got, err := os.ReadFile(filepath.Join(dir, task.Name+".c"))
		if err != nil || string(got) != res.Code[task.Name] {
			t.Fatalf("%s.c: %v, or its contents differ from the task's code", task.Name, err)
		}
	}
}

// TestDotRequiresOut: -dot without -out is a usage error that
// synthesizes nothing; with -out it writes one DOT file per task.
func TestDotRequiresOut(t *testing.T) {
	app, res := threeTaskApp(t)
	dir := t.TempDir()
	flowc, net := filepath.Join(dir, "app.flc"), filepath.Join(dir, "app.net")
	if err := os.WriteFile(flowc, []byte(app.FlowC), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(net, []byte(app.Spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-flowc", flowc, "-net", net, "-dot"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-dot without -out: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "requires -out") || stdout.Len() != 0 {
		t.Fatalf("-dot without -out: stdout %q, stderr %q; want only the usage error", stdout.String(), stderr.String())
	}
	out := filepath.Join(dir, "out")
	if code := run([]string{"-flowc", flowc, "-net", net, "-dot", "-out", out}, io.Discard, &stderr); code != 0 {
		t.Fatalf("-dot -out: exit %d: %s", code, stderr.String())
	}
	for _, task := range res.Tasks {
		if _, err := os.Stat(filepath.Join(out, task.Name+".dot")); err != nil {
			t.Fatal(err)
		}
	}
}

// failingClose is a file whose Close fails.
type failingClose struct{ *os.File }

var errClose = errors.New("close failed")

func (f failingClose) Close() error {
	f.File.Close()
	return errClose
}

// TestDotCloseError: a DOT file whose Close fails is an error that
// names the file, and it is not announced as written.
func TestDotCloseError(t *testing.T) {
	_, res := threeTaskApp(t)
	create := func(path string) (io.WriteCloser, error) {
		f, err := os.Create(path)
		if err != nil || filepath.Ext(path) != ".dot" {
			return f, err
		}
		return failingClose{f}, nil
	}
	dir := t.TempDir()
	var out bytes.Buffer
	err := writeTasks(&out, res, dir, true, create)
	first := filepath.Join(dir, res.Tasks[0].Name+".dot")
	if !errors.Is(err, errClose) || !strings.Contains(err.Error(), first) {
		t.Fatalf("err = %v, want the close error naming %s", err, first)
	}
	if strings.Contains(out.String(), ".dot") {
		t.Fatalf("a DOT file whose Close failed was announced:\n%s", out.String())
	}
}
