package corpus

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/petri"
	"repro/internal/sim"
)

// TestGenerateDeterministic: same seed, n and config produce
// byte-identical apps.
func TestGenerateDeterministic(t *testing.T) {
	a := GenerateCorpus(42, 12, DefaultConfig())
	b := GenerateCorpus(42, 12, DefaultConfig())
	for i := range a {
		if a[i].FlowC != b[i].FlowC {
			t.Fatalf("app %d: FlowC differs between identical seeds", i)
		}
		if a[i].Spec != b[i].Spec {
			t.Fatalf("app %d: spec differs between identical seeds", i)
		}
	}
	c := GenerateCorpus(43, 12, DefaultConfig())
	same := 0
	for i := range a {
		if a[i].FlowC == c[i].FlowC {
			same++
		}
	}
	if same == len(a) {
		t.Error("different master seeds generated an identical corpus")
	}
}

// TestCorpusProperties is the paper-invariant sweep (Definition 4.1)
// over 50 generated apps: every app must synthesize, every schedule
// must validate, sources must fire only at await nodes, and a
// simulation run with each channel capped at its ChannelBound must
// deliver the expected items without deadlock.
func TestCorpusProperties(t *testing.T) {
	const nApps = 50
	const triggers = 3
	apps := GenerateCorpus(1, nApps, DefaultConfig())
	for _, app := range apps {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			res, err := core.Synthesize(app.FlowC, app.Spec, nil)
			if err != nil {
				t.Fatalf("corpus app must be schedulable: %v\n--- FlowC:\n%s\n--- spec:\n%s", err, app.FlowC, app.Spec)
			}
			if len(res.Schedules) != len(app.Triggers) {
				t.Fatalf("schedules = %d, want one per trigger (%d)", len(res.Schedules), len(app.Triggers))
			}
			for _, s := range res.Schedules {
				// The five defining properties (root = initial marking,
				// single ECS per node, marking transformer edges, every
				// node on a cycle through the root).
				if err := s.Validate(); err != nil {
					t.Errorf("schedule %s: %v", res.Sys.Net.Transitions[s.Source].Name, err)
				}
				if !s.Root.Marking.Equal(res.Sys.Net.InitialMarking()) {
					t.Errorf("schedule %s: root marking is not the initial marking", res.Sys.Net.Transitions[s.Source].Name)
				}
				// Sources fire only at await nodes.
				for _, n := range s.Nodes {
					for _, e := range n.Edges {
						if res.Sys.Net.Transitions[e.Trans].Kind == petri.TransSourceUnc && !s.IsAwait(n) {
							t.Errorf("schedule %s: node %d fires a source outside an await node",
								res.Sys.Net.Transitions[s.Source].Name, n.ID)
						}
					}
				}
			}
			simCheck(t, app, res, triggers)
		})
	}
}

// simCheck runs the free-running baseline with every channel capped at
// its statically guaranteed bound: the workload must complete (inputs
// drained, deterministic outputs delivered) and no channel may ever
// hold more items than its ChannelBound.
func simCheck(t *testing.T, app *App, res *core.Result, triggers int) {
	t.Helper()
	b := sim.NewBaseline(res.Sys, sim.PFC, 0)
	caps := map[string]int{}
	for _, ch := range res.Sys.Channels {
		bound := res.Bounds[ch.Place.ID]
		if bound <= 0 {
			t.Errorf("channel %s: non-positive guaranteed bound %d", ch.Spec.Name, bound)
			bound = 1
		}
		caps[ch.Spec.Name] = bound
	}
	b.CapacityOf = caps
	for _, trig := range app.Triggers {
		for k := 0; k < triggers; k++ {
			b.Input(trig).Push(int64(k%4 + 1))
		}
	}
	if _, err := b.Run(); err != nil {
		t.Fatalf("sim run under guaranteed bounds failed: %v", err)
	}
	for _, trig := range app.Triggers {
		if n := b.Input(trig).Len(); n != 0 {
			t.Errorf("trigger %s: %d inputs left unconsumed (deadlock under guaranteed bounds?)", trig, n)
		}
	}
	for out, perTrigger := range app.DetOutputs {
		got := len(b.Output(out).Vals)
		if want := perTrigger * triggers; got != want {
			t.Errorf("output %s: delivered %d items, want %d", out, got, want)
		}
	}
	for name, ch := range b.Channels {
		if ch.MaxOccupancy > caps[name] {
			t.Errorf("channel %s: occupancy %d exceeded guaranteed bound %d", name, ch.MaxOccupancy, caps[name])
		}
	}
}

// TestParallelSerialDeterminism is the race/determinism check of the
// concurrent engine: synthesizing the same multi-task corpus app on the
// serial and parallel paths must yield byte-identical generated C and
// identical search statistics. Running under -race (the Makefile does)
// also exercises the pool for data races.
func TestParallelSerialDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinPipelines, cfg.MaxPipelines = 3, 5
	apps := GenerateCorpus(7, 6, cfg)
	for _, app := range apps {
		serial, err := core.Synthesize(app.FlowC, app.Spec, &core.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s serial: %v", app.Name, err)
		}
		parallel, err := core.Synthesize(app.FlowC, app.Spec, &core.Options{Workers: 8})
		if err != nil {
			t.Fatalf("%s parallel: %v", app.Name, err)
		}
		if len(serial.Schedules) != len(parallel.Schedules) {
			t.Fatalf("%s: schedule counts differ", app.Name)
		}
		for i := range serial.Schedules {
			if serial.Schedules[i].Stats.NodesKept != parallel.Schedules[i].Stats.NodesKept {
				t.Errorf("%s schedule %d: NodesKept %d vs %d", app.Name, i,
					serial.Schedules[i].Stats.NodesKept, parallel.Schedules[i].Stats.NodesKept)
			}
		}
		for name, code := range serial.Code {
			if parallel.Code[name] != code {
				t.Errorf("%s task %s: generated C differs between serial and parallel synthesis", app.Name, name)
			}
		}
	}
}

// TestRunBatch: results stay aligned with input order, failures are
// recorded per app, and the aggregate counters add up.
func TestRunBatch(t *testing.T) {
	apps := GenerateCorpus(11, 10, DefaultConfig())
	br := RunBatch(context.Background(), apps, BatchOptions{Workers: 4, Core: nil})
	if br.Failed != 0 {
		for _, r := range br.Results {
			if r.Err != nil {
				t.Errorf("%s: %v", r.App.Name, r.Err)
			}
		}
		t.Fatalf("%d corpus apps failed to synthesize", br.Failed)
	}
	wantScheds := 0
	for i, r := range br.Results {
		if r.App != apps[i] {
			t.Fatalf("result %d out of order", i)
		}
		wantScheds += len(apps[i].Triggers)
	}
	if br.Schedules != wantScheds {
		t.Errorf("aggregate schedules = %d, want %d", br.Schedules, wantScheds)
	}
	if br.Throughput() <= 0 {
		t.Error("throughput must be positive")
	}
}

// TestRunBatchCancelled: a cancelled context marks undispatched apps
// with the context error instead of hanging.
func TestRunBatchCancelled(t *testing.T) {
	apps := GenerateCorpus(13, 8, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	br := RunBatch(ctx, apps, BatchOptions{Workers: 2, Core: nil})
	if br.Failed != len(apps) {
		t.Errorf("failed = %d, want all %d (pre-cancelled context)", br.Failed, len(apps))
	}
}

// TestGenerateShapeKnobs: degenerate configs stay valid.
func TestGenerateShapeKnobs(t *testing.T) {
	cfg := Config{
		MinPipelines: 1, MaxPipelines: 1,
		MinStages: 1, MaxStages: 1,
		MaxFanOut: 1, MaxOps: 1, MaxWidth: 1,
	}
	app := Generate(rand.New(rand.NewSource(3)), "tiny", cfg)
	if app.Procs != 1 {
		t.Fatalf("procs = %d, want 1", app.Procs)
	}
	if _, err := core.Synthesize(app.FlowC, app.Spec, nil); err != nil {
		t.Fatalf("tiny app: %v", err)
	}
}
