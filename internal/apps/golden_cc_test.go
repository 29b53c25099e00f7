package apps

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
)

// ccStub stands in for the <sys>.data.h every task includes, which
// nothing generates yet: READ_DATA and WRITE_DATA are macros that
// evaluate their data arguments, and the input functions the tasks
// await are declared.
const ccStub = `#define READ_DATA(port, dst, n) ((void)(dst), (void)(n))
#define WRITE_DATA(port, src, n) ((void)(src), (void)(n))
void go(void);
void in(void);
void init(void);
void cin(void);
`

var includeRE = regexp.MustCompile(`(?m)^#include "([^"/]+)"$`)

// ccSyntax runs the C compiler's syntax and type check over the C file
// f, as C99 with every warning an error, against a ccStub under the
// name of each header f includes. It skips the test without cc.
func ccSyntax(t *testing.T, f string) {
	t.Helper()
	cc, err := exec.LookPath("cc")
	if err != nil {
		t.Skipf("skipping: no C compiler on PATH (%v)", err)
	}
	src, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	stubs := t.TempDir()
	for _, m := range includeRE.FindAllSubmatch(src, -1) {
		if err := os.WriteFile(filepath.Join(stubs, string(m[1])), []byte(ccStub), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := exec.Command(cc, "-std=c99", "-Wall", "-Werror", "-Wno-unused-label", "-fsyntax-only", "-I", stubs, f).CombinedOutput()
	if err != nil {
		t.Errorf("%s does not compile: %v\n%s", f, err, out)
	}
}

// TestGoldenCompiles checks that every golden task file is C. Whether
// the tasks behave like the process network is
// TestPFCFunctionalEquivalence's business.
func TestGoldenCompiles(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden C files (%v)", err)
	}
	for _, f := range files {
		ccSyntax(t, f)
	}
}

// formsFlowC moves items over intra-task channels in every shape: one
// item or several, from and into scalars and arrays, through a ring
// (channel A) and through a size-1 buffer (channel B).
const formsFlowC = `
PROCESS src (In DPORT go, In DPORT ack, Out DPORT a, Out DPORT b) {
  int g, k, arr[2], one[1];
  while (1) {
    READ_DATA(go, &g, 1);
    arr[0] = g;
    arr[1] = g + 1;
    one[0] = g + 2;
    WRITE_DATA(a, arr, 2);
    WRITE_DATA(a, one, 1);
    WRITE_DATA(a, g, 1);
    WRITE_DATA(b, one, 1);
    READ_DATA(ack, &k, 1);
  }
}

PROCESS snk (In DPORT a, In DPORT b, Out DPORT out, Out DPORT ack) {
  int v, w[2], x[1], y[1];
  while (1) {
    READ_DATA(a, w, 2);
    READ_DATA(a, x, 1);
    READ_DATA(a, &v, 1);
    READ_DATA(b, y, 1);
    WRITE_DATA(out, v + w[0] + w[1] + x[0] + y[0], 1);
    WRITE_DATA(ack, 0, 1);
  }
}
`

const formsSpec = `
system forms
channel A src.a -> snk.a
channel B src.b -> snk.b
channel Ack snk.ack -> src.ack
input go -> src.go uncontrollable
output snk.out -> out
`

// TestReadWriteForms: the item count and the kind of the variable, not
// the buffer size, choose how an intra-task READ_DATA or WRITE_DATA
// moves its items — a plain assignment for one item of a scalar, an
// indexed copy otherwise — and each form compiles.
func TestReadWriteForms(t *testing.T) {
	r, err := core.Synthesize(formsFlowC, formsSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	code := r.Code["task_go"]
	for _, want := range []string{
		"{ int k_; for (k_ = 0; k_ < 2; k_++) { BUF_A[BUF_A_w] = src_arr[k_]; BUF_A_w = (BUF_A_w + 1) % 2; } }",
		"{ int k_; for (k_ = 0; k_ < 2; k_++) { snk_w[k_] = BUF_A[BUF_A_r]; BUF_A_r = (BUF_A_r + 1) % 2; } }",
		"{ int k_; for (k_ = 0; k_ < 1; k_++) { BUF_A[BUF_A_w] = src_one[k_]; BUF_A_w = (BUF_A_w + 1) % 2; } }",
		"{ int k_; for (k_ = 0; k_ < 1; k_++) { snk_x[k_] = BUF_A[BUF_A_r]; BUF_A_r = (BUF_A_r + 1) % 2; } }",
		"BUF_A[BUF_A_w] = src_g; BUF_A_w = (BUF_A_w + 1) % 2;",
		"snk_v = BUF_A[BUF_A_r]; BUF_A_r = (BUF_A_r + 1) % 2;",
		"BUF_B = src_one[0];",
		"snk_y[0] = BUF_B;",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("task_go lacks %q:\n%s", want, code)
		}
	}
	f := filepath.Join(t.TempDir(), "task_go.c")
	if err := os.WriteFile(f, []byte(code), 0o644); err != nil {
		t.Fatal(err)
	}
	ccSyntax(t, f)
}
