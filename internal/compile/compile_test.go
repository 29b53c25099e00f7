package compile

import (
	"strings"
	"testing"

	"repro/internal/flowc"
	"repro/internal/petri"
)

// divisorsSrc is the process of Figure 1 of the paper.
const divisorsSrc = `
PROCESS divisors (In DPORT in, Out DPORT max, Out DPORT all) {
  int n, i;
  while (1) {
    READ_DATA(in, &n, 1);
    i = n / 2;
    while (n % i != 0)
      i--;
    WRITE_DATA(max, i, 1);
    WRITE_DATA(all, i, 1);
    while (i > 1) {
      i--;
      if (n % i == 0)
        WRITE_DATA(all, i, 1);
    }
  }
}
`

func parse(t *testing.T, src string) *flowc.Process {
	t.Helper()
	p, err := flowc.ParseProcess(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func TestLeadersFigure1(t *testing.T) {
	// The paper (Section 3.1): "The leaders are the statements at lines
	// 4 (by rules 2 and 4), 9 (by rule 3), 11 and 13 (by rule 4)" —
	// i.e. READ_DATA(in), WRITE_DATA(all) after the max write, i--, and
	// WRITE_DATA(all) inside the if.
	p := parse(t, divisorsSrc)
	leaders := Leaders(p)
	var reprs []string
	for _, s := range leaders {
		reprs = append(reprs, strings.TrimSpace(flowc.FormatStmt(s, 0)))
	}
	want := []string{
		"READ_DATA(in, n, 1);",
		"WRITE_DATA(all, i, 1);",
		"i--;",
		"WRITE_DATA(all, i, 1);",
	}
	if len(reprs) != len(want) {
		t.Fatalf("leaders = %v, want %v", reprs, want)
	}
	for i := range want {
		if reprs[i] != want[i] {
			t.Errorf("leader %d = %q, want %q", i, reprs[i], want[i])
		}
	}
}

func TestContainsPortOp(t *testing.T) {
	p := parse(t, divisorsSrc)
	outer := p.Body.Stmts[1] // while(1)
	if !ContainsPortOp(outer) {
		t.Error("while(1) contains port ops")
	}
	if ContainsPortOp(p.Body.Stmts[0]) {
		t.Error("declaration contains no port ops")
	}
}

func TestDivisorsNetStructure(t *testing.T) {
	cp, err := CompileProcess(parse(t, divisorsSrc))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	n := cp.Net
	// Port places exist.
	for _, port := range []string{"in", "max", "all"} {
		if cp.PortPlace[port] == nil {
			t.Errorf("missing port place %s", port)
		}
	}
	// Ignoring port places, exactly one internal place is marked.
	marked := 0
	for _, pl := range n.Places {
		if pl.Kind == petri.PlaceInternal && pl.Initial > 0 {
			marked++
		}
	}
	if marked != 1 {
		t.Errorf("marked internal places = %d, want 1", marked)
	}
	// The net is unique choice (Section 3.1).
	if !n.IsUniqueChoice() {
		t.Error("compiled process should be a UCPN")
	}
	// Two data choices: while(i>1) and if(n%i==0).
	dataChoices := 0
	for _, pl := range n.Places {
		if ci, ok := pl.Cond.(*ChoiceInfo); ok && ci.Kind == ChoiceData {
			dataChoices++
		}
	}
	if dataChoices != 2 {
		t.Errorf("data choice places = %d, want 2 (while i>1 and if n%%i==0)", dataChoices)
	}
	// Every internal run stays deterministic: one marked place travels.
	r := n.Explore(petri.ExploreOptions{FireSources: false, MaxTokensPerPlace: 8})
	for _, m := range r.Store.All() {
		count := 0
		for i, pl := range n.Places {
			if pl.Kind == petri.PlaceInternal && m[i] > 0 {
				count += int(m[i])
			}
		}
		if count != 1 {
			t.Errorf("marking %s has %d internal tokens, want 1", m.Key(), count)
		}
	}
}

func TestReadHeadsPortion(t *testing.T) {
	cp, err := CompileProcess(parse(t, `
PROCESS p (In DPORT i, Out DPORT o) {
  int v;
  while (1) {
    READ_DATA(i, &v, 1);
    v = v + 1;
    WRITE_DATA(o, v, 1);
  }
}`))
	if err != nil {
		t.Fatal(err)
	}
	// One portion [READ, v=v+1, WRITE] plus the silent wrap back to the
	// loop head (the ε of Figure 3).
	if got := len(cp.Net.Transitions); got != 2 {
		var sb strings.Builder
		cp.Net.Format(&sb)
		t.Fatalf("transitions = %d, want 2\n%s", got, sb.String())
	}
	tr := cp.Net.Transitions[0]
	frag := tr.Code.(*Fragment)
	if len(frag.Stmts) != 3 {
		t.Errorf("fragment statements = %d, want 3", len(frag.Stmts))
	}
	if tr.Weight(cp.PortPlace["i"].ID) != 1 || tr.OutWeight(cp.PortPlace["o"].ID) != 1 {
		t.Error("port arcs missing on the portion transition")
	}
}

func TestMultiRateArcs(t *testing.T) {
	cp, err := CompileProcess(parse(t, `
PROCESS p (In DPORT i, Out DPORT o) {
  int line[10];
  while (1) {
    READ_DATA(i, line, 10);
    WRITE_DATA(o, line, 5);
  }
}`))
	if err != nil {
		t.Fatal(err)
	}
	tr := cp.Net.Transitions[0]
	if tr.Weight(cp.PortPlace["i"].ID) != 10 {
		t.Errorf("read arc weight = %d, want 10", tr.Weight(cp.PortPlace["i"].ID))
	}
	if tr.OutWeight(cp.PortPlace["o"].ID) != 5 {
		t.Errorf("write arc weight = %d, want 5", tr.OutWeight(cp.PortPlace["o"].ID))
	}
}

func TestChoiceSuccessorsShareECS(t *testing.T) {
	// Data-choice successor transitions must form one ECS even when a
	// branch starts with a port operation (the compiler inserts ε).
	cp, err := CompileProcess(parse(t, `
PROCESS p (In DPORT i, Out DPORT o) {
  int v;
  while (1) {
    READ_DATA(i, &v, 1);
    if (v > 0) {
      WRITE_DATA(o, v, 1);
    } else {
      v = 0;
    }
  }
}`))
	if err != nil {
		t.Fatal(err)
	}
	n := cp.Net
	part := n.ECSPartition()
	idx := petri.ECSIndex(part, len(n.Transitions))
	var tT, fT *petri.Transition
	for _, tr := range n.Transitions {
		switch tr.Label {
		case "T":
			tT = tr
		case "F":
			fT = tr
		}
	}
	if tT == nil || fT == nil {
		t.Fatal("missing T/F transitions")
	}
	if idx[tT.ID] != idx[fT.ID] {
		t.Error("T and F branches must share an equal conflict set")
	}
	// The labeled transitions carry no port arcs.
	for _, tr := range []*petri.Transition{tT, fT} {
		for _, a := range tr.In {
			if n.Places[a.Place].Kind != petri.PlaceInternal {
				t.Errorf("%s consumes non-internal place", tr.Name)
			}
		}
	}
}

func TestSelectCompilation(t *testing.T) {
	cp, err := CompileProcess(parse(t, `
PROCESS p (In DPORT a, In DPORT b, Out DPORT o) {
  int v, buf[2];
  while (1) {
    switch (SELECT(a, 2, b, 1)) {
    case 0:
      READ_DATA(a, buf, 2);
      v = buf[0];
      break;
    case 1:
      READ_DATA(b, &v, 1);
      break;
    }
    WRITE_DATA(o, v, 1);
  }
}`))
	if err != nil {
		t.Fatal(err)
	}
	n := cp.Net
	// SELECT arms are recorded for link fixup.
	if len(cp.SelectArms) != 2 {
		t.Fatalf("select arms = %d, want 2", len(cp.SelectArms))
	}
	// Arm entries carry availability self-loops: weight 2 on a, 1 on b.
	arm0 := n.Transitions[cp.SelectArms[0].Trans]
	if arm0.Weight(cp.PortPlace["a"].ID) != 2 || arm0.OutWeight(cp.PortPlace["a"].ID) != 2 {
		t.Errorf("arm 0 self-loop wrong: in=%d out=%d",
			arm0.Weight(cp.PortPlace["a"].ID), arm0.OutWeight(cp.PortPlace["a"].ID))
	}
	// The arms are in different ECSs (synchronization choice).
	part := n.ECSPartition()
	idx := petri.ECSIndex(part, len(n.Transitions))
	arm1 := n.Transitions[cp.SelectArms[1].Trans]
	if idx[arm0.ID] == idx[arm1.ID] {
		t.Error("select arms must be in distinct ECSs")
	}
	// The select place is marked as a select choice.
	found := false
	for _, pl := range n.Places {
		if ci, ok := pl.Cond.(*ChoiceInfo); ok && ci.Kind == ChoiceSelect {
			found = true
		}
	}
	if !found {
		t.Error("missing select choice info")
	}
}

func TestInitPrefixExtraction(t *testing.T) {
	cp, err := CompileProcess(parse(t, `
PROCESS p (In DPORT i) {
  int c, v;
  c = 7;
  v = c * 2;
  while (1) {
    READ_DATA(i, &v, 1);
  }
}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.InitStmts) != 2 {
		t.Fatalf("init statements = %d, want 2", len(cp.InitStmts))
	}
	// The cyclic net is a single read transition looping on p0.
	if got := len(cp.Net.Transitions); got != 1 {
		t.Errorf("transitions = %d, want 1 (init code must not enter the net)", got)
	}
}

func TestConstantFolding(t *testing.T) {
	cp, err := CompileProcess(parse(t, `
PROCESS p (Out DPORT o) {
  int v;
  while (1) {
    if (0) {
      WRITE_DATA(o, 1, 1);
    }
    if (1) {
      WRITE_DATA(o, 2, 1);
    }
    WRITE_DATA(o, v, 1);
  }
}`))
	if err != nil {
		t.Fatal(err)
	}
	// No choice places: both ifs are constant-folded.
	for _, pl := range cp.Net.Places {
		if pl.Cond != nil {
			t.Errorf("constant condition produced a choice place %s", pl.Name)
		}
	}
}

func TestDeadCodeAfterInfiniteLoop(t *testing.T) {
	_, err := CompileProcess(parse(t, `
PROCESS p (Out DPORT o) {
  int v;
  while (1) {
    WRITE_DATA(o, v, 1);
  }
  v = 3;
}`))
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("dead code after while(1) should be rejected, got %v", err)
	}
}

func TestFragmentSource(t *testing.T) {
	cp, err := CompileProcess(parse(t, `
PROCESS p (In DPORT i) {
  int v;
  while (1) {
    READ_DATA(i, &v, 1);
    v = v + 1;
  }
}`))
	if err != nil {
		t.Fatal(err)
	}
	frag := cp.Net.Transitions[0].Code.(*Fragment)
	src := frag.Source()
	if !strings.Contains(src, "READ_DATA(i, v, 1);") || !strings.Contains(src, "v = (v + 1);") {
		t.Errorf("fragment source:\n%s", src)
	}
	if frag.IsSilent() {
		t.Error("non-empty fragment reported silent")
	}
	var nilFrag *Fragment
	if !nilFrag.IsSilent() {
		t.Error("nil fragment should be silent")
	}
}
