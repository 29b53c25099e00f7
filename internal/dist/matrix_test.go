package dist_test

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/petri"
	"repro/internal/sched"
)

// The determinism matrix: every execution strategy of the exploration —
// in-process, with the frozen store tier, and real spawned worker
// processes — must produce byte-identical schedules, generated C and
// reachability results. These tests spawn actual OS processes
// (dist.SpawnLocal re-executes this test binary; TestMain routes the
// children into dist.MaybeWorker), so they cover the wire protocol,
// replica reconstruction and coordinator merge end to end, under -race
// when the harness runs with it.

func TestMain(m *testing.M) {
	dist.MaybeWorker()
	os.Exit(m.Run())
}

// fingerprint renders everything downstream consumers depend on: task
// names, generated C, guaranteed bounds and the full schedule text.
func fingerprint(t *testing.T, r *core.Result) string {
	t.Helper()
	var sb strings.Builder
	names := make([]string, 0, len(r.Code))
	for name := range r.Code {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "== task %s ==\n%s", name, r.Code[name])
	}
	fmt.Fprintf(&sb, "bounds %v\n", r.Bounds)
	for _, s := range r.Schedules {
		if err := s.Format(&sb); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

var matrixApps = []struct {
	name  string
	flowc string
	spec  string
}{
	{"divisors", apps.Divisors, apps.DivisorsSpec},
	{"pixelpipe", apps.PixelPipe, apps.PixelPipeSpec},
	{"multirate", apps.MultiRate, apps.MultiRateSpec},
	{"falsepath_fixed", apps.FalsePathFixed, apps.FalsePathFixedSpec},
	{"pfc", apps.PFC, apps.PFCSpec},
}

// matrixConfig is one execution strategy. procs > 0 spawns that many
// worker processes; otherwise the search runs in-process. freeze turns
// on the frozen store tier through petri.Strategy.Freeze — on the
// coordinator, and in the workers, which learn it from the session
// init.
type matrixConfig struct {
	name   string
	procs  int
	freeze bool
}

var matrixConfigs = []matrixConfig{
	{name: "serial"},
	{name: "serial-frozen", freeze: true},
	{name: "dist-procs-1", procs: 1},
	{name: "dist-procs-2", procs: 2},
	{name: "dist-procs-4", procs: 4},
	{name: "dist-procs-2-frozen", procs: 2, freeze: true},
}

// TestDeterminismMatrix: byte-identical generated C and schedules for
// every example app across {serial, frozen store, worker processes in
// {1,2,4}}. The workers must freeze exactly when the coordinator does:
// after each dist cell (PFC runs last) every worker's replica holds
// frozen bytes in the frozen cell and none in the others.
func TestDeterminismMatrix(t *testing.T) {
	want := make(map[string]string, len(matrixApps))
	for _, app := range matrixApps {
		r, err := core.Synthesize(app.flowc, app.spec, &core.Options{Workers: 1, DisableCache: true})
		if err != nil {
			t.Fatalf("serial %s: %v", app.name, err)
		}
		want[app.name] = fingerprint(t, r)
	}
	for _, cfg := range matrixConfigs[1:] {
		t.Run(cfg.name, func(t *testing.T) {
			so := &sched.Options{Strategy: petri.Strategy{Freeze: cfg.freeze}}
			opt := &core.Options{Workers: 1, DisableCache: true, Sched: so}
			var pool *dist.Pool
			if cfg.procs > 0 {
				var err error
				pool, err = dist.SpawnLocal(cfg.procs)
				if err != nil {
					t.Fatalf("spawn %d workers: %v", cfg.procs, err)
				}
				defer pool.Close()
				so.Strategy.Runner = pool
			}
			for _, app := range matrixApps {
				r, err := core.Synthesize(app.flowc, app.spec, opt)
				if err != nil {
					t.Fatalf("%s under %s: %v", app.name, cfg.name, err)
				}
				if got := fingerprint(t, r); got != want[app.name] {
					t.Errorf("%s under %s: output differs from serial\n%s",
						app.name, cfg.name, firstDiff(want[app.name], got))
				}
			}
			if pool == nil {
				return
			}
			for i, wm := range pool.LastSessionStats().Workers {
				t.Logf("worker %d: store %d B, frozen %d B", i, wm.StoreBytes, wm.FrozenBytes)
				if frozen := wm.FrozenBytes > 0; frozen != cfg.freeze {
					t.Errorf("worker %d under %s: %d frozen bytes, want frozen=%v", i, cfg.name, wm.FrozenBytes, cfg.freeze)
				}
			}
		})
	}
}

// TestPFCBudgetEdgeDist: the search budget binds at the same edge when
// a worker pool expands the search — MaxNodes one below PFC's state
// count fails with ErrBudget, MaxNodes equal to it succeeds — and an
// over-budget session leaves the pool usable.
func TestPFCBudgetEdgeDist(t *testing.T) {
	const states = 23984 // PFC's single search
	pool := dist.PipePool(t, 2)
	opt := func(maxNodes int) *core.Options {
		return &core.Options{Workers: 1, DisableCache: true,
			Sched: &sched.Options{MaxNodes: maxNodes, Strategy: petri.Strategy{Runner: pool}}}
	}
	if _, err := core.Synthesize(apps.PFC, apps.PFCSpec, opt(states-1)); !errors.Is(err, sched.ErrBudget) {
		t.Fatalf("MaxNodes %d: err = %v, want ErrBudget", states-1, err)
	}
	r, err := core.Synthesize(apps.PFC, apps.PFCSpec, opt(states))
	if err != nil {
		t.Fatalf("MaxNodes %d: %v", states, err)
	}
	if got := r.Schedules[0].Stats.NodesCreated; got != states {
		t.Fatalf("explored %d states, want %d", got, states)
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  serial: %q\n  this:   %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(wl), len(gl))
}

// TestReachMatrix: petri-level ReachResult ordering — markings, edges,
// clip flags — is byte-identical across in-process and worker-process
// exploration, including under budget truncation and from a root that
// starts over its token cap.
func TestReachMatrix(t *testing.T) {
	nets := []struct {
		name string
		net  *petri.Net
		opt  petri.ExploreOptions
	}{
		{"product-space", productNet(3, 4), petri.ExploreOptions{MaxMarkings: 200}},
		{"pfc-capped", linkedPFCNet(t), petri.ExploreOptions{MaxMarkings: 3000, MaxTokensPerPlace: 2, FireSources: true}},
		{"pfc-truncated", linkedPFCNet(t), petri.ExploreOptions{MaxMarkings: 111, MaxTokensPerPlace: 2, FireSources: true}},
		{"root-over-cap", overCapRootNet(), petri.ExploreOptions{MaxTokensPerPlace: 2}},
	}
	for _, tc := range nets {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.net.Explore(tc.opt)
			for _, procs := range []int{1, 2, 4} {
				pool, err := dist.SpawnLocal(procs)
				if err != nil {
					t.Fatalf("spawn %d workers: %v", procs, err)
				}
				got, err := tc.net.ExploreDist(pool, tc.opt)
				pool.Close()
				if err != nil {
					t.Fatalf("ExploreDist(%d procs): %v", procs, err)
				}
				assertSameReach(t, fmt.Sprintf("procs=%d", procs), want, got)
			}
		})
	}
}

func assertSameReach(t *testing.T, label string, want, got *petri.ReachResult) {
	t.Helper()
	if want.Len() != got.Len() || want.Truncated != got.Truncated {
		t.Fatalf("%s: %d states/truncated=%v, want %d/%v", label, got.Len(), got.Truncated, want.Len(), want.Truncated)
	}
	for id := 0; id < want.Len(); id++ {
		if !want.MarkingAt(petri.MarkID(id)).Equal(got.MarkingAt(petri.MarkID(id))) {
			t.Fatalf("%s: marking %d differs", label, id)
		}
		if want.Clipped[id] != got.Clipped[id] {
			t.Fatalf("%s: clipped[%d] differs", label, id)
		}
		we, ge := want.Edges[id], got.Edges[id]
		if len(we) != len(ge) {
			t.Fatalf("%s: state %d edge counts differ", label, id)
		}
		for k := range we {
			if we[k] != ge[k] {
				t.Fatalf("%s: state %d edge %d differs", label, id, k)
			}
		}
	}
}

// productNet: independent token rings whose reachable space is the
// product of ring positions.
func productNet(pipes, stages int) *petri.Net {
	n := petri.New(fmt.Sprintf("product-%dx%d", pipes, stages))
	for p := 0; p < pipes; p++ {
		var ps []*petri.Place
		for s := 0; s < stages; s++ {
			init := 0
			if s == 0 {
				init = 1
			}
			ps = append(ps, n.AddPlace(fmt.Sprintf("r%d_%d", p, s), petri.PlaceInternal, init))
		}
		for s := 0; s < stages; s++ {
			t := n.AddTransition(fmt.Sprintf("t%d_%d", p, s), petri.TransNormal)
			n.AddArc(ps[s], t, 1)
			n.AddArcTP(t, ps[(s+1)%stages], 1)
		}
	}
	return n
}

// overCapRootNet starts over its cap: the initial marking holds 5
// tokens at place a, and move shifts b's token to c without touching a,
// so under a cap of 2 the root's move successor is still over the cap
// at a and must be vetoed, although move adds tokens only to c. drain
// takes a back within the cap, and from there move is admitted.
func overCapRootNet() *petri.Net {
	n := petri.New("over-cap-root")
	a := n.AddPlace("a", petri.PlaceChannel, 5)
	b := n.AddPlace("b", petri.PlaceInternal, 1)
	c := n.AddPlace("c", petri.PlaceInternal, 0)
	d := n.AddPlace("d", petri.PlaceChannel, 0)
	move := n.AddTransition("move", petri.TransNormal)
	n.AddArc(b, move, 1)
	n.AddArcTP(move, c, 1)
	drain := n.AddTransition("drain", petri.TransNormal)
	n.AddArc(a, drain, 3)
	n.AddArcTP(drain, d, 1)
	return n
}

// linkedPFCNet compiles and links the PFC application, returning its
// system net — a realistic multi-process net with SELECT choice
// structure for the reachability matrix.
func linkedPFCNet(t *testing.T) *petri.Net {
	t.Helper()
	r, err := apps.SynthesizePFC()
	if err != nil {
		t.Fatalf("synthesize pfc: %v", err)
	}
	return r.Sys.Net
}

// sweepConfig keeps the 50-app corpus sweep light enough for -race on
// a small container while still covering every generator pattern.
func sweepConfig() corpus.Config {
	cfg := corpus.DefaultConfig()
	cfg.MaxPipelines = 2
	cfg.MaxStages = 2
	cfg.MaxOps = 2
	cfg.MaxWidth = 2
	return cfg
}

// TestCorpusSweepDist: a 50-app randomized corpus synthesizes to
// byte-identical code under serial and cross-process exploration (the
// acceptance sweep; the named-app matrix above covers the full config
// cross product).
func TestCorpusSweepDist(t *testing.T) {
	appsList := corpus.GenerateCorpus(1234, 50, sweepConfig())
	pool, err := dist.SpawnLocal(2)
	if err != nil {
		t.Fatalf("spawn workers: %v", err)
	}
	defer pool.Close()
	serialOpt := &core.Options{Workers: 1, DisableCache: true}
	distOpt := &core.Options{Workers: 1, DisableCache: true, Sched: &sched.Options{Strategy: petri.Strategy{Runner: pool}}}
	for i, app := range appsList {
		want, serr := core.Synthesize(app.FlowC, app.Spec, serialOpt)
		got, derr := core.Synthesize(app.FlowC, app.Spec, distOpt)
		if (serr == nil) != (derr == nil) {
			t.Fatalf("app %d (%s): serial err %v, dist err %v", i, app.Name, serr, derr)
		}
		if serr != nil {
			// Both failed: the failure itself must be deterministic.
			if serr.Error() != derr.Error() {
				t.Fatalf("app %d (%s): divergent errors\n serial: %v\n dist:   %v", i, app.Name, serr, derr)
			}
			continue
		}
		if fw, fg := fingerprint(t, want), fingerprint(t, got); fw != fg {
			t.Errorf("app %d (%s): dist output differs from serial\n%s", i, app.Name, firstDiff(fw, fg))
		}
	}
}

// TestCorpusSweepFrozen: the freeze/thaw property sweep — the same
// 50-app corpus synthesizes to byte-identical code with the frozen
// store tier on, every level frozen to disk and thawed on demand,
// versus the all-hot serial baseline.
func TestCorpusSweepFrozen(t *testing.T) {
	appsList := corpus.GenerateCorpus(1234, 50, sweepConfig())
	serialOpt := &core.Options{Workers: 1, DisableCache: true}
	frozenOpt := &core.Options{Workers: 1, DisableCache: true, Sched: &sched.Options{Strategy: petri.Strategy{Freeze: true}}}
	for i, app := range appsList {
		want, serr := core.Synthesize(app.FlowC, app.Spec, serialOpt)
		got, ferr := core.Synthesize(app.FlowC, app.Spec, frozenOpt)
		if (serr == nil) != (ferr == nil) {
			t.Fatalf("app %d (%s): all-hot err %v, frozen err %v", i, app.Name, serr, ferr)
		}
		if serr != nil {
			if serr.Error() != ferr.Error() {
				t.Fatalf("app %d (%s): divergent errors\n all-hot: %v\n frozen:  %v", i, app.Name, serr, ferr)
			}
			continue
		}
		if fw, fg := fingerprint(t, want), fingerprint(t, got); fw != fg {
			t.Errorf("app %d (%s): frozen output differs from all-hot\n%s", i, app.Name, firstDiff(fw, fg))
		}
	}
}
