package sched_test

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/flowc"
	"repro/internal/linalg"
	"repro/internal/link"
	"repro/internal/petri"
	"repro/internal/sched"
)

// multiRateBurst is the multirate app with its line of LinePixels
// pixels widened to n: the producer writes n values in one WRITE_DATA,
// and the consumer drains them one at a time. The largest rank grows
// with n: it passes 2³⁰ from n = 3000 and 2³¹ from about n = 3900.
func multiRateBurst(n int) string {
	w := strconv.Itoa(n)
	return strings.NewReplacer(
		"buf[10]", "buf["+w+"]",
		"j < 10", "j < "+w,
		"WRITE_DATA(line, buf, 10)", "WRITE_DATA(line, buf, "+w+")",
	).Replace(apps.MultiRate)
}

// TestBigBurstSchedules: a burst whose ranks pass 2³⁰ and one whose
// ranks pass 2³¹ synthesize, with the burst as the Line channel's bound
// and a schedule of 5n+8 nodes.
func TestBigBurstSchedules(t *testing.T) {
	start := time.Now()
	for _, n := range []int{3000, 4096} {
		res, err := core.Synthesize(multiRateBurst(n), apps.MultiRateSpec, nil)
		if err != nil {
			t.Errorf("burst %d: %v", n, err)
			continue
		}
		if got := res.ChannelBound("Line"); got != n {
			t.Errorf("burst %d: Line bound %d, want %d", n, got, n)
		}
		for _, s := range res.Schedules {
			if err := s.Validate(); err != nil {
				t.Errorf("burst %d: %v", n, err)
			}
			if got, want := len(s.Nodes), 5*n+8; got != want {
				t.Errorf("burst %d: %d schedule nodes, want %d", n, got, want)
			}
		}
	}
	// The race detector slows the search several times over.
	if took := time.Since(start); took > 2*time.Second && !raceEnabled {
		t.Errorf("both bursts took %v, want at most 2s", took)
	}
}

// linkNet compiles and links an app into its system net.
func linkNet(t *testing.T, src, spec string) *petri.Net {
	t.Helper()
	f, err := flowc.ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := flowc.CheckFile(f); err != nil {
		t.Fatal(err)
	}
	var procs []*compile.CompiledProcess
	for _, p := range f.Processes {
		cp, err := compile.CompileProcess(p)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, cp)
	}
	ls, err := link.ParseSpec(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := link.Link(procs, ls)
	if err != nil {
		t.Fatal(err)
	}
	return sys.Net
}

// checkRanks runs the rank oracle, and with adjacency set the
// adjacency oracle, on every search of an app and returns the largest
// finite rank it saw.
func checkRanks(t *testing.T, name, src, spec string, adjacency bool) int64 {
	t.Helper()
	n := linkNet(t, src, spec)
	var top int64
	for _, source := range n.UncontrollableSources() {
		states, maxRank, err := sched.CheckRanks(n, source, nil, adjacency)
		if err != nil {
			t.Fatalf("%s, source %s: %v", name, n.Transitions[source].Name, err)
		}
		if states == 0 {
			t.Fatalf("%s, source %s: no states ranked", name, n.Transitions[source].Name)
		}
		top = max(top, maxRank)
	}
	return top
}

// TestRankOracleApps compares every state's rank with the reference
// Dijkstra on PFC, every search of the seed-1, 50-app corpus and a
// 4096-pixel burst, whose ranks pass 2³¹. The adjacency oracle runs on
// PFC only: on the corpus it would nearly triple the test's time.
func TestRankOracleApps(t *testing.T) {
	checkRanks(t, "pfc", apps.PFC, apps.PFCSpec, true)
	for _, app := range corpus.GenerateCorpus(1, 50, corpus.DefaultConfig()) {
		checkRanks(t, app.Name, app.FlowC, app.Spec, false)
	}
	if top := checkRanks(t, "burst-4096", multiRateBurst(4096), apps.MultiRateSpec, false); top <= 1<<31 {
		t.Errorf("burst-4096: largest rank %d, want one past 2³¹", top)
	}
}

// TestTInvariantBasisPFC pins the T-invariant basis of the PFC system
// net, over its 32 transitions: the three minimal-support invariants
// the Section 5.5.2 heuristic picks its candidate from.
func TestTInvariantBasisPFC(t *testing.T) {
	n, err := core.SystemNet(apps.PFC, apps.PFCSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := []linalg.Vector{
		{0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 1},
		{0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0, 1, 1, 1, 2, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0},
	}
	if got := linalg.TInvariantBasis(n.IncidenceMatrix()); !reflect.DeepEqual(got, want) {
		t.Errorf("PFC T-invariant basis %v, want %v", got, want)
	}
}
