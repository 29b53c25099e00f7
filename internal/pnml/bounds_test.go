package pnml_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/petri"
	"repro/internal/pnml"
)

// scanBounds is PlaceBounds' oracle: the largest count of each place
// over every stored marking, each decoded with Store.Load.
func scanBounds(r *petri.ReachResult) []int {
	bounds := make([]int, r.Store.Places())
	var m petri.Marking
	for id := range r.Len() {
		m = r.Store.Load(m, petri.MarkID(id))
		for p, v := range m {
			bounds[p] = max(bounds[p], int(v))
		}
	}
	return bounds
}

// TestPlaceBoundsMatchesScan: PlaceBounds, which stops reading a place
// once its count fills its field, agrees with a scan of every stored
// marking. Each suite net is explored under its suite budget, truncated
// at 20 states, and capped at 2 tokens a place. The last net starts
// with 300 tokens on p, which p+q bounds at 300, more than a field
// holds, so its store widens at the root.
func TestPlaceBoundsMatchesScan(t *testing.T) {
	check := func(name string, n *petri.Net, opt petri.ExploreOptions) []int {
		t.Helper()
		r := n.Explore(opt)
		got, want := r.PlaceBounds(), scanBounds(r)
		if !slices.Equal(got, want) {
			t.Errorf("%s: PlaceBounds %v, scan %v", name, got, want)
		}
		return got
	}
	for _, f := range suiteFixtures(t) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		n, err := pnml.ParseBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		opt, ok := suiteOpts[filepath.Base(f)]
		if !ok {
			opt = defaultSuiteOpts
		}
		name := filepath.Base(f)
		check(name, n, petri.ExploreOptions{MaxMarkings: opt.MaxMarkings, MaxTokensPerPlace: opt.MaxTokensPerPlace, FireSources: true})
		check(name+"/truncated", n, petri.ExploreOptions{MaxMarkings: 20, MaxTokensPerPlace: opt.MaxTokensPerPlace, FireSources: true})
		check(name+"/capped", n, petri.ExploreOptions{MaxMarkings: opt.MaxMarkings, MaxTokensPerPlace: 2, FireSources: true})
	}
	n := petri.New("wide")
	p := n.AddPlace("p", petri.PlaceChannel, 300)
	q := n.AddPlace("q", petri.PlaceChannel, 0)
	move := n.AddTransition("move", petri.TransNormal)
	n.AddArc(p, move, 7)
	n.AddArcTP(move, q, 7)
	if got := check("widened", n, petri.ExploreOptions{}); got[0] != 300 || got[1] != 294 {
		t.Errorf("widened: bounds %v, want [300 294]", got)
	}
}
