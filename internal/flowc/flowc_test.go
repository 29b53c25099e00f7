package flowc

import (
	"fmt"
	"strings"
	"testing"
)

func TestLexerTokens(t *testing.T) {
	src := `PROCESS p (In DPORT a) { int x; x += 1; if (x <= 2 && x != 3) x--; }`
	toks, err := LexAll(src)
	if err != nil {
		t.Fatalf("LexAll: %v", err)
	}
	var kinds []TokKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	want := []TokKind{TokProcess, TokIdent, TokLParen, TokIn, TokDPort, TokIdent, TokRParen,
		TokLBrace, TokIntType, TokIdent, TokSemi, TokIdent, TokPlusEq, TokInt, TokSemi,
		TokIf, TokLParen, TokIdent, TokLe, TokInt, TokAndAnd, TokIdent, TokNeq, TokInt,
		TokRParen, TokIdent, TokDec, TokSemi, TokRBrace, TokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("token count = %d, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexerComments(t *testing.T) {
	src := "PROCESS p () { // line comment\n /* block\ncomment */ }"
	toks, err := LexAll(src)
	if err != nil {
		t.Fatalf("LexAll: %v", err)
	}
	if len(toks) != 7 { // PROCESS p ( ) { } EOF
		t.Errorf("tokens = %d, want 7", len(toks))
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"/* unterminated", `"unterminated`, "@"} {
		if _, err := LexAll(src); err == nil {
			t.Errorf("LexAll(%q) should fail", src)
		}
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := LexAll("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("positions wrong: %v %v", toks[0].Pos, toks[1].Pos)
	}
}

const roundTripSrc = `PROCESS demo (In DPORT in, Out DPORT out)
{
  int n, i, buf[4];
  while (1)
  {
    READ_DATA(in, n, 1);
    for (i = 0; (i < n); i++)
    {
      if (((n % 2) == 0))
        WRITE_DATA(out, (i * 2), 1);
      else
        WRITE_DATA(out, i, 1);
    }
    while (((n > 0) || (i > 10)))
      n--;
    switch (SELECT(in, 1, out, 2)) {
    case 0:
      READ_DATA(in, n, 1);
      break;
    case 1:
      WRITE_DATA(out, n, 1);
      break;
    }
  }
}
`

func TestParsePrintFixedPoint(t *testing.T) {
	p1, err := ParseProcess(roundTripSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out1 := FormatProcess(p1)
	p2, err := ParseProcess(out1)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out1)
	}
	out2 := FormatProcess(p2)
	if out1 != out2 {
		t.Errorf("print/parse not a fixed point:\n%s\n----\n%s", out1, out2)
	}
}

func TestParsePrecedence(t *testing.T) {
	p, err := ParseProcess(`PROCESS p () { int a, b, c; a = b + c * 2 - -b % 3; }`)
	if err != nil {
		t.Fatal(err)
	}
	es := p.Body.Stmts[1].(*ExprStmt)
	got := FormatExpr(es.X)
	want := "a = ((b + (c * 2)) - (-b % 3))"
	if got != want {
		t.Errorf("precedence: %s, want %s", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,                                      // no process
		`PROCESS p (`,                           // unterminated
		`PROCESS p () { READ_DATA(x, &v, 0); }`, // nitems 0
		`PROCESS p () { 1 = 2; }`,               // bad lvalue
		`PROCESS p () { ++3; }`,                 // bad inc operand
		`PROCESS p () { int a[0]; }`,            // zero array
		`PROCESS p (In DPORT a) { switch (SELECT(a, 1)) { case 4: break; } }`,                // case out of range
		`PROCESS p (In DPORT a) { switch (SELECT(a, 1)) { case 0: break; case 0: break; } }`, // dup case
		`PROCESS p (Bogus DPORT a) {}`, // bad direction
	}
	for _, src := range cases {
		if _, err := ParseProcess(src); err == nil {
			t.Errorf("ParseProcess(%q) should fail", src)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"undeclared var", `PROCESS p () { x = 1; }`},
		{"redeclared var", `PROCESS p () { int x; int x; }`},
		{"unknown port", `PROCESS p () { READ_DATA(in, &v, 1); }`},
		{"wrong direction", `PROCESS p (Out DPORT o) { int v; READ_DATA(o, &v, 1); }`},
		{"scalar multi-read", `PROCESS p (In DPORT i) { int v; READ_DATA(i, v, 3); }`},
		{"small array", `PROCESS p (In DPORT i) { int b[2]; READ_DATA(i, b, 3); }`},
		{"scalar multi-write", `PROCESS p (Out DPORT o) { int v; WRITE_DATA(o, v, 2); }`},
		{"expr multi-write", `PROCESS p (Out DPORT o) { int v; WRITE_DATA(o, v+1, 2); }`},
		{"select unknown port", `PROCESS p (In DPORT i) { switch (SELECT(zz, 1)) { case 0: break; } }`},
		{"port shadow", `PROCESS p (In DPORT i) { int i; }`},
	}
	for _, c := range cases {
		p, err := ParseProcess(c.src)
		if err != nil {
			t.Fatalf("%s: parse failed: %v", c.name, err)
		}
		if err := Check(p); err == nil {
			t.Errorf("%s: Check should fail", c.name)
		}
	}
}

// TestCheckTokenLimit: an item count or array size of exactly
// petri.MaxTokens checks; one more is an error at the statement's or
// declaration's position.
func TestCheckTokenLimit(t *testing.T) {
	for _, c := range []struct{ src, pos string }{
		{`PROCESS p (In DPORT i) { int b[%d]; READ_DATA(i, b, 1); }`, "1:30"},
		{`PROCESS p (In DPORT i) { int b[2147483647]; READ_DATA(i, b, %d); }`, "1:45"},
		{`PROCESS p (Out DPORT o) { int b[2147483647]; WRITE_DATA(o, b, %d); }`, "1:46"},
		{`PROCESS p (In DPORT i) { switch (SELECT(i, %d)) { case 0: break; } }`, "1:41"},
	} {
		for _, n := range []int{2147483647, 2147483648} {
			src := fmt.Sprintf(c.src, n)
			p, err := ParseProcess(src)
			if err != nil {
				t.Fatalf("%s: parse failed: %v", src, err)
			}
			err = Check(p)
			if n == 2147483647 && err != nil {
				t.Errorf("%s: %v", src, err)
			}
			if n == 2147483648 && (err == nil || !strings.HasPrefix(err.Error(), c.pos+": ") || !strings.Contains(err.Error(), "above 2147483647")) {
				t.Errorf("%s: Check = %v, want an error at %s naming the limit", src, err, c.pos)
			}
		}
	}
}

func TestCheckFileDuplicateProcess(t *testing.T) {
	f, err := ParseFile(`PROCESS a () { int x; } PROCESS a () { int y; }`)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFile(f); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate process should fail, got %v", err)
	}
}

func TestCheckValid(t *testing.T) {
	p, err := ParseProcess(roundTripSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(p); err != nil {
		t.Errorf("valid process rejected: %v", err)
	}
}

func TestPortByName(t *testing.T) {
	p, err := ParseProcess(`PROCESS p (In DPORT a, Out DPORT b) { int x; }`)
	if err != nil {
		t.Fatal(err)
	}
	if pd := p.PortByName("b"); pd == nil || pd.Dir != PortOut {
		t.Errorf("PortByName(b) = %+v", pd)
	}
	if p.PortByName("zz") != nil {
		t.Error("PortByName(zz) should be nil")
	}
}
