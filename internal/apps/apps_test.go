package apps

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

func TestDivisorsSynthesis(t *testing.T) {
	r, err := core.Synthesize(Divisors, DivisorsSpec, nil)
	if err != nil {
		t.Fatalf("divisors: %v", err)
	}
	if len(r.Tasks) != 1 {
		t.Fatalf("tasks = %d, want 1", len(r.Tasks))
	}
	code := r.Code[r.Tasks[0].Name]
	if !strings.Contains(code, "divisors_n") {
		t.Errorf("generated code should use uniquified variable names:\n%s", code)
	}
}

func TestPixelPipeSynthesis(t *testing.T) {
	r, err := core.Synthesize(PixelPipe, PixelPipeSpec, nil)
	if err != nil {
		t.Fatalf("pixelpipe: %v", err)
	}
	// One task (single uncontrollable input), unit channel bounds.
	if len(r.Tasks) != 1 {
		t.Fatalf("tasks = %d, want 1", len(r.Tasks))
	}
	for _, name := range []string{"Pix", "Eol"} {
		if got := r.ChannelBound(name); got != 1 {
			t.Errorf("channel %s bound = %d, want 1 (unit-size buffers)", name, got)
		}
	}
	t.Logf("schedule nodes: %d (explored %d)", len(r.Schedules[0].Nodes), r.Schedules[0].Stats.NodesCreated)
}

func TestFalsePathPlainRejected(t *testing.T) {
	if _, err := TryFalsePathPlain(); err == nil {
		t.Fatalf("plain false-path pair should be rejected by the conservative scheduler")
	} else if !strings.Contains(err.Error(), sched.ErrNoSchedule.Error()) {
		t.Fatalf("unexpected error kind: %v", err)
	}
}

func TestFalsePathFixedSchedulable(t *testing.T) {
	r, err := SynthesizeFalsePathFixed()
	if err != nil {
		t.Fatalf("fixed pair should schedule: %v", err)
	}
	t.Logf("schedule nodes: %d (explored %d)", len(r.Schedules[0].Nodes), r.Schedules[0].Stats.NodesCreated)
}

func TestPFCSynthesis(t *testing.T) {
	r, err := SynthesizePFC()
	if err != nil {
		t.Fatalf("pfc: %v", err)
	}
	if len(r.Tasks) != 1 {
		t.Fatalf("tasks = %d, want 1 (single uncontrollable input)", len(r.Tasks))
	}
	// The paper: "our proposed algorithm generated, in less than a
	// minute, a single task with all the channels of unit size."
	for _, ch := range r.Sys.Channels {
		if got := r.Bounds[ch.Place.ID]; got != 1 {
			t.Errorf("channel %s bound = %d, want 1", ch.Spec.Name, got)
		}
	}
	t.Logf("schedule nodes: %d (explored %d)", len(r.Schedules[0].Nodes), r.Schedules[0].Stats.NodesCreated)
	t.Logf("segments: %d", len(r.Tasks[0].Segments))
}

// pfcStates is the number of states PFC's single schedule search
// explores.
const pfcStates = 23984

// TestPFCBudgetEdge pins the search budget at its edge: a MaxNodes
// equal to PFC's state count succeeds, one less fails with ErrBudget.
func TestPFCBudgetEdge(t *testing.T) {
	r, err := core.Synthesize(PFC, PFCSpec, &core.Options{Sched: &sched.Options{MaxNodes: pfcStates}})
	if err != nil {
		t.Fatalf("MaxNodes %d: %v", pfcStates, err)
	}
	if got := r.Schedules[0].Stats.NodesCreated; len(r.Schedules) != 1 || got != pfcStates {
		t.Fatalf("%d searches, %d states; want 1 search of %d", len(r.Schedules), got, pfcStates)
	}
	_, err = core.Synthesize(PFC, PFCSpec, &core.Options{Sched: &sched.Options{MaxNodes: pfcStates - 1}})
	if !errors.Is(err, sched.ErrBudget) {
		t.Fatalf("MaxNodes %d: err = %v, want ErrBudget", pfcStates-1, err)
	}
}

// TestPFCDeadline: PFC has one source, so its whole search runs on one
// pool worker. A deadline that passes during that search still fails
// synthesis once the search ends, as it does for a many-source system.
// Nothing inside the search reads the context yet.
func TestPFCDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := core.SynthesizeContext(ctx, PFC, PFCSpec, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("1 ms deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

func TestMultiRateSynthesis(t *testing.T) {
	r, err := SynthesizeMultiRate()
	if err != nil {
		t.Fatalf("multirate: %v", err)
	}
	// The line channel must be sized for the 10-pixel burst.
	if got := r.ChannelBound("Line"); got != 10 {
		t.Errorf("Line bound = %d, want 10 (one full line)", got)
	}
	t.Logf("schedule nodes: %d", len(r.Schedules[0].Nodes))
}
