package pnml

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
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
	// Strategy executes the exploration: a Runner (an
	// *internal/dist.Pool) shards it across worker processes, Fallback
	// reruns it inline if the runner fails, and Freeze moves closed BFS
	// levels to on-disk delta segments. The Analysis is the same under
	// every strategy.
	Strategy petri.Strategy
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
		Strategy:          opt.Strategy,
	}
	r, err := n.ExploreDist(opt.Strategy.Runner, eopt)
	if err != nil {
		return nil, fmt.Errorf("pnml: exploration: %w", err)
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
// the per-state clip flags and the truncation bit, each value as a
// little-endian 64-bit word. Two explorations agree on the fingerprint
// exactly when they produced byte-identical results — the conformance
// matrix compares these across in-process, distributed and frozen
// runs.
func Fingerprint(r *petri.ReachResult) string {
	w := fingerprintWriter{h: sha256.New(), buf: make([]byte, 0, fingerprintBlock)}
	w.reserve(2)
	w.put(r.Len())
	w.putBool(r.Truncated)
	for id := 0; id < r.Len(); id++ {
		m, es := r.MarkingAt(petri.MarkID(id)), r.Edges[id]
		w.reserve(len(m) + 2 + 2*len(es))
		for _, v := range m {
			w.put(int(v))
		}
		w.putBool(r.Clipped[id])
		w.put(len(es))
		for _, e := range es {
			w.put(int(e.Trans))
			w.put(int(e.To))
		}
	}
	w.h.Write(w.buf)
	return hex.EncodeToString(w.h.Sum(nil))
}

// fingerprintBlock is the byte count Fingerprint buffers between
// SHA-256 Writes: the hashed byte stream is the same as with one Write
// per word, without a Write call per 8 bytes.
const fingerprintBlock = 4 << 10

// fingerprintWriter serializes Fingerprint's words into one reused
// buffer and feeds the hash a block at a time.
type fingerprintWriter struct {
	h   hash.Hash
	buf []byte
}

// reserve makes room for n more words, writing the buffered bytes to
// the hash first if they would not fit.
func (w *fingerprintWriter) reserve(n int) {
	if len(w.buf)+8*n > cap(w.buf) {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

// put appends one word as 8 little-endian bytes.
func (w *fingerprintWriter) put(v int) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(int64(v)))
}

func (w *fingerprintWriter) putBool(b bool) {
	if b {
		w.put(1)
	} else {
		w.put(0)
	}
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
