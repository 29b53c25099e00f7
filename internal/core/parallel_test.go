package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/petri"
	"repro/internal/sched"
)

// manyTaskApp builds n independent trigger/worker pipelines in one
// system, giving the flow n uncontrollable sources to schedule.
func manyTaskApp(n int) (flowcSrc, specSrc string) {
	var src, spec strings.Builder
	spec.WriteString("system many\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, `
PROCESS w%d (In DPORT go, Out DPORT out) {
  int v;
  while (1) {
    READ_DATA(go, &v, 1);
    WRITE_DATA(out, v * %d + 1, 1);
  }
}
`, i, i+2)
		fmt.Fprintf(&spec, "input go%d -> w%d.go uncontrollable\n", i, i)
		fmt.Fprintf(&spec, "output w%d.out -> o%d\n", i, i)
	}
	return src.String(), spec.String()
}

// TestParallelMatchesSerial checks the determinism contract of
// Options.Workers: one pool worker and six must produce byte-identical
// generated code and identical search statistics.
func TestParallelMatchesSerial(t *testing.T) {
	flowcSrc, specSrc := manyTaskApp(6)
	serial, err := Synthesize(flowcSrc, specSrc, &Options{Workers: 1, DisableCache: true})
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	parallel, err := Synthesize(flowcSrc, specSrc, &Options{Workers: 6, DisableCache: true})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if len(serial.Schedules) != len(parallel.Schedules) {
		t.Fatalf("schedule count: serial %d, parallel %d", len(serial.Schedules), len(parallel.Schedules))
	}
	for i := range serial.Schedules {
		ss, ps := serial.Schedules[i], parallel.Schedules[i]
		if ss.Source != ps.Source {
			t.Errorf("schedule %d: source %d vs %d", i, ss.Source, ps.Source)
		}
		if ss.Stats.NodesKept != ps.Stats.NodesKept {
			t.Errorf("schedule %d: NodesKept %d vs %d", i, ss.Stats.NodesKept, ps.Stats.NodesKept)
		}
	}
	if len(serial.Code) != len(parallel.Code) {
		t.Fatalf("code map size: %d vs %d", len(serial.Code), len(parallel.Code))
	}
	for name, code := range serial.Code {
		if parallel.Code[name] != code {
			t.Errorf("task %s: generated C differs between 1 and 6 workers", name)
		}
	}
}

// TestWorkersExceedSources: a worker count far above the source count
// must behave like a saturated pool, not break.
func TestWorkersExceedSources(t *testing.T) {
	flowcSrc, specSrc := manyTaskApp(2)
	r, err := Synthesize(flowcSrc, specSrc, &Options{Workers: 64, DisableCache: true})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if len(r.Tasks) != 2 {
		t.Fatalf("tasks = %d, want 2", len(r.Tasks))
	}
}

// TestSynthesizeContextCancelled: a cancelled context aborts synthesis
// before (or during) the schedule searches.
func TestSynthesizeContextCancelled(t *testing.T) {
	flowcSrc, specSrc := manyTaskApp(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SynthesizeContext(ctx, flowcSrc, specSrc, &Options{DisableCache: true})
	if err == nil {
		t.Fatal("cancelled context should fail synthesis")
	}
	if !strings.Contains(err.Error(), "context canceled") {
		t.Errorf("unexpected error: %v", err)
	}
	// Any worker count fails the same way.
	_, err = SynthesizeContext(ctx, flowcSrc, specSrc, &Options{Workers: 4, DisableCache: true})
	if err == nil {
		t.Fatal("cancelled context should fail synthesis with 4 workers")
	}
}

// panicOrder is an ECS order that panics on first use.
type panicOrder struct{}

func (panicOrder) Sort(*sched.OrderContext, []*petri.ECS) []*petri.ECS {
	panic("order exploded")
}

// TestSearchPanicReachesCaller: a search runs on a pool goroutine, but a
// panic inside it comes back on the caller's goroutine, where a caller
// that recovers (the server's middleware) sees it. One source and
// several take the same path.
func TestSearchPanicReachesCaller(t *testing.T) {
	for _, sources := range []int{1, 3} {
		flowcSrc, specSrc := manyTaskApp(sources)
		opt := &Options{
			Sched:        &sched.Options{Engine: sched.EngineTreeExhaustive, Order: panicOrder{}},
			DisableCache: true,
		}
		func() {
			defer func() {
				if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), "order exploded") {
					t.Errorf("%d sources: recovered %v, want the search's panic", sources, v)
				}
			}()
			_, err := SynthesizeContext(context.Background(), flowcSrc, specSrc, opt)
			t.Errorf("%d sources: synthesis returned (%v) instead of panicking", sources, err)
		}()
	}
}

// TestParallelFirstErrorCancels: an unschedulable source must surface
// its error from the pool, and the error must match the serial one.
func TestParallelFirstErrorCancels(t *testing.T) {
	// The cross-task shared channel from core_test.go is unschedulable;
	// embed it among healthy pipelines so the pool sees both outcomes.
	flowcSrc, specSrc := manyTaskApp(3)
	flowcSrc += sharedChanSrc
	specSrc += `
channel C w.out -> r.in
input go -> w.go uncontrollable
input tick -> r.tick uncontrollable
output r.res -> res
`
	serialErr := func() error {
		_, err := Synthesize(flowcSrc, specSrc, &Options{Workers: 1, DisableCache: true})
		return err
	}()
	parallelErr := func() error {
		_, err := Synthesize(flowcSrc, specSrc, &Options{Workers: 5, DisableCache: true})
		return err
	}()
	if serialErr == nil || parallelErr == nil {
		t.Fatalf("unschedulable system must fail: serial=%v parallel=%v", serialErr, parallelErr)
	}
}
