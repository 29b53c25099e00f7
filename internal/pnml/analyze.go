package pnml

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"repro/internal/petri"
)

// AnalyzeOptions bounds the exploration of an imported net and picks
// where it runs. The zero value explores in-process with the
// explorer's default budget.
type AnalyzeOptions struct {
	// MaxMarkings bounds the number of distinct markings explored
	// (0 = the explorer's default).
	MaxMarkings int
	// MaxTokensPerPlace prunes markings where any place exceeds this
	// count (0 = no cap). Imported nets are under no FlowC discipline,
	// so unbounded nets need the cap to terminate; a truncated result
	// reports the place that grew as a witness of unboundedness.
	MaxTokensPerPlace int
	// Dist shards the exploration across the runner's worker processes
	// (an *internal/dist.Pool satisfies petri.FrontierRunner).
	Dist petri.FrontierRunner
	// FreezeLevels moves closed BFS levels to on-disk delta segments.
	FreezeLevels bool
}

// Analysis is the reachability and bound report for one imported net.
// Every field is a deterministic function of the net and the options —
// independent of the execution strategy — which is what the
// pnml-conformance matrix pins.
type Analysis struct {
	Net   *petri.Net
	Reach *petri.ReachResult
	// Bounds is the per-place maximum token count over the explored
	// states (exact when Reach.Truncated is false, lower bounds
	// otherwise).
	Bounds []int
	// Deadlocks counts explored markings with no outgoing firing.
	Deadlocks int
	// Edges counts the recorded reachability edges.
	Edges int
	// Fingerprint condenses the full ReachResult — markings in MarkID
	// order, edges, clip flags, truncation — into a hex SHA-256.
	Fingerprint string
}

// Analyze explores the net from its initial marking with every
// transition fireable (imported nets carry no controllability
// information, so structural sources fire like any other transition)
// and derives the bound/deadlock report.
func Analyze(n *petri.Net, opt AnalyzeOptions) (*Analysis, error) {
	eopt := petri.ExploreOptions{
		MaxMarkings:       opt.MaxMarkings,
		MaxTokensPerPlace: opt.MaxTokensPerPlace,
		FireSources:       true,
		FreezeLevels:      opt.FreezeLevels,
	}
	var (
		r   *petri.ReachResult
		err error
	)
	if opt.Dist != nil {
		r, err = n.ExploreDist(opt.Dist, eopt)
		if err != nil {
			return nil, fmt.Errorf("pnml: distributed exploration: %w", err)
		}
	} else {
		r = n.Explore(eopt)
	}
	return &Analysis{
		Net:         n,
		Reach:       r,
		Bounds:      r.PlaceBounds(),
		Deadlocks:   len(r.DeadlockMarkings()),
		Edges:       countEdges(r),
		Fingerprint: Fingerprint(r),
	}, nil
}

func countEdges(r *petri.ReachResult) int {
	total := 0
	for _, es := range r.Edges {
		total += len(es)
	}
	return total
}

// Fingerprint hashes everything a ReachResult determines: the marking
// vectors in MarkID order, the edge lists (transition and successor),
// the per-state clip flags and the truncation bit. Two explorations
// agree on the fingerprint exactly when they produced byte-identical
// results — the conformance matrix compares these across in-process,
// distributed and frozen runs.
func Fingerprint(r *petri.ReachResult) string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	writeInt(r.Len())
	if r.Truncated {
		writeInt(1)
	} else {
		writeInt(0)
	}
	for id := 0; id < r.Len(); id++ {
		for _, v := range r.MarkingAt(petri.MarkID(id)) {
			writeInt(v)
		}
		if r.Clipped[id] {
			writeInt(1)
		} else {
			writeInt(0)
		}
		writeInt(len(r.Edges[id]))
		for _, e := range r.Edges[id] {
			writeInt(e.Trans)
			writeInt(int(e.To))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// AnalyzeFile parses the PNML document at path and analyzes it.
func AnalyzeFile(path string, opt AnalyzeOptions) (*Analysis, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pnml: %w", err)
	}
	defer f.Close()
	n, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return Analyze(n, opt)
}

// Report prints the human-readable analysis summary the -pnml command
// modes emit: net shape, state/edge counts, truncation, deadlocks, the
// bound of every place (with the imported place name), and the
// fingerprint for cross-configuration comparison.
func (a *Analysis) Report(w io.Writer, verbose bool) {
	n, r := a.Net, a.Reach
	fmt.Fprintf(w, "net %s: %d places, %d transitions\n", n.Name, len(n.Places), len(n.Transitions))
	status := "complete"
	if r.Truncated {
		status = "truncated (budget or token cap hit; bounds are lower bounds)"
	}
	fmt.Fprintf(w, "reachability: %d states, %d edges, %s\n", r.Len(), a.Edges, status)
	fmt.Fprintf(w, "deadlocks: %d\n", a.Deadlocks)
	maxBound, maxPlace := -1, -1
	for p, b := range a.Bounds {
		if b > maxBound {
			maxBound, maxPlace = b, p
		}
	}
	if maxPlace >= 0 {
		fmt.Fprintf(w, "max place bound: %d at %s\n", maxBound, n.Places[maxPlace].Name)
	}
	if verbose {
		for p, b := range a.Bounds {
			fmt.Fprintf(w, "  bound %-24s %d\n", n.Places[p].Name, b)
		}
	}
	fmt.Fprintf(w, "fingerprint: %s\n", a.Fingerprint)
}
