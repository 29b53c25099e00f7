package dist_test

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/petri"
)

// The determinism matrix of dist exploration: petri.Net.ExploreDist on
// real spawned worker processes must produce ReachResults
// byte-identical to the inline exploration, all-hot and with the frozen
// store tier. These tests spawn actual OS processes (dist.SpawnLocal
// re-executes this test binary; TestMain routes the children into
// dist.MaybeWorker), so they cover the wire protocol, replica
// reconstruction and coordinator merge end to end, under -race when the
// harness runs with it.

func TestMain(m *testing.M) {
	dist.MaybeWorker()
	os.Exit(m.Run())
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

// matrixOpt bounds the exploration of each example app's linked net:
// sources fire, and a cap of two tokens per place keeps it finite.
var matrixOpt = petri.ExploreOptions{MaxMarkings: 5000, MaxTokensPerPlace: 2, FireSources: true}

// matrixConfigs are the worker-process counts, and whether the
// exploration freezes — on the coordinator, and in the workers, which
// learn it from the session init.
var matrixConfigs = []struct {
	name   string
	procs  int
	freeze bool
}{
	{name: "dist-procs-1", procs: 1},
	{name: "dist-procs-2", procs: 2},
	{name: "dist-procs-4", procs: 4},
	{name: "dist-procs-2-frozen", procs: 2, freeze: true},
}

// TestDeterminismMatrix: byte-identical ReachResults for the linked
// net of every example app across worker processes in {1,2,4}, and
// frozen on 2. The workers must freeze exactly when the coordinator
// does: after each cell (PFC runs last) every worker's replica holds
// frozen bytes in the frozen cell and none in the others.
func TestDeterminismMatrix(t *testing.T) {
	nets := make([]*petri.Net, len(matrixApps))
	want := make([]*petri.ReachResult, len(matrixApps))
	for i, app := range matrixApps {
		n, err := core.SystemNet(app.flowc, app.spec)
		if err != nil {
			t.Fatalf("link %s: %v", app.name, err)
		}
		nets[i], want[i] = n, n.Explore(matrixOpt)
	}
	for _, cfg := range matrixConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			pool, err := dist.SpawnLocal(cfg.procs)
			if err != nil {
				t.Fatalf("spawn %d workers: %v", cfg.procs, err)
			}
			defer pool.Close()
			opt := matrixOpt
			opt.Freeze = cfg.freeze
			for i, app := range matrixApps {
				got, err := nets[i].ExploreDist(pool, opt)
				if err != nil {
					t.Fatalf("%s under %s: %v", app.name, cfg.name, err)
				}
				assertSameReach(t, app.name+" under "+cfg.name, want[i], got)
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

// TestPFCBudgetEdgeDist: the marking budget binds at the same edge when
// a worker pool expands the exploration of PFC's linked net —
// MaxMarkings one below the full count truncates, MaxMarkings equal to
// it completes — and an over-budget session leaves the pool usable.
func TestPFCBudgetEdgeDist(t *testing.T) {
	n := linkedPFCNet(t)
	opt := petri.ExploreOptions{MaxMarkings: 1 << 20, MaxTokensPerPlace: 1, FireSources: true}
	full := n.Explore(opt)
	states := full.Len() // 23,984
	if states == opt.MaxMarkings {
		t.Fatalf("the reference exploration hit its budget at %d states", states)
	}
	pool, err := dist.SpawnLocal(2)
	if err != nil {
		t.Fatalf("spawn workers: %v", err)
	}
	defer pool.Close()
	opt.MaxMarkings = states - 1
	r, err := n.ExploreDist(pool, opt)
	if err != nil || !r.Truncated || r.Len() != states-1 {
		t.Fatalf("MaxMarkings %d: %v, err %v; want %d states, truncated", states-1, r, err, states-1)
	}
	assertSameReach(t, "budget-1", n.Explore(opt), r)
	opt.MaxMarkings = states
	r, err = n.ExploreDist(pool, opt)
	if err != nil {
		t.Fatalf("MaxMarkings %d: %v", states, err)
	}
	assertSameReach(t, "budget", full, r)
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
	n, err := core.SystemNet(apps.PFC, apps.PFCSpec)
	if err != nil {
		t.Fatalf("link pfc: %v", err)
	}
	return n
}
