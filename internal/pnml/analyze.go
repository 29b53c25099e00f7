package pnml

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"slices"

	"repro/internal/petri"
)

// AnalyzeOptions bounds the exploration of an imported net. The zero
// value explores all-hot with the explorer's default budget.
type AnalyzeOptions struct {
	// MaxMarkings bounds the number of distinct markings explored
	// (0 = the explorer's default).
	MaxMarkings int
	// MaxTokensPerPlace prunes markings where any place exceeds this
	// count (0 = no cap). Imported nets are under no FlowC discipline,
	// so unbounded nets need the cap to terminate; a truncated result
	// reports the place that grew as a witness of unboundedness.
	MaxTokensPerPlace int
	// Freeze moves closed BFS levels to on-disk delta segments. The
	// Analysis is the same either way.
	Freeze bool
}

// Analysis is the reachability and bound report for one imported net.
// Every field is a deterministic function of the net and the options —
// independent of Freeze — which is what the pnml-conformance matrix
// pins.
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
	// order, edges, clip flags, truncation — into a hex SHA-256 over
	// their uvarint encoding (see the Fingerprint function).
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
		Freeze:            opt.Freeze,
	}
	r, err := n.ExploreDist(nil, eopt)
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

// Fingerprint hashes everything a ReachResult determines: the state
// count and the truncation bit, then per state in MarkID order its
// marking vector, its clip flag, its edge count and its edges
// (transition and successor). Each of these words goes into SHA-256 as
// an unsigned varint (encoding/binary's uvarint), so a token count
// below 128, the common case, is one byte. The encoding is prefix-free:
// the byte stream decodes to exactly one word sequence. Two
// explorations agree on the fingerprint exactly when they produced
// byte-identical results — the conformance matrix compares these across
// inline, worker-process and frozen runs.
func Fingerprint(r *petri.ReachResult) string {
	w := fingerprintWriter{h: sha256.New(), buf: make([]byte, 0, fingerprintBlock)}
	w.reserve(2)
	w.put(r.Len())
	w.putBool(r.Truncated)
	for id := 0; id < r.Len(); id++ {
		m, es := r.MarkingAt(petri.MarkID(id)), r.Edges[id]
		w.reserve(len(m) + 2 + 2*len(es))
		w.putTokens(m)
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
// per word, without a Write call per word.
const fingerprintBlock = 4 << 10

// fingerprintWriter serializes Fingerprint's words into one reused
// buffer and feeds the hash a block at a time.
type fingerprintWriter struct {
	h   hash.Hash
	buf []byte
}

// reserve makes room for n more words, writing the buffered bytes to
// the hash first if they might not fit, and growing the buffer if n
// words of the longest encoding exceed it.
func (w *fingerprintWriter) reserve(n int) {
	need := n * binary.MaxVarintLen64
	if len(w.buf)+need > cap(w.buf) {
		w.h.Write(w.buf)
		w.buf = slices.Grow(w.buf[:0], need)
	}
}

// put appends one word as a uvarint of its 64-bit two's complement.
func (w *fingerprintWriter) put(v int) {
	w.buf = binary.AppendUvarint(w.buf, uint64(int64(v)))
}

func (w *fingerprintWriter) putBool(b bool) {
	if b {
		w.put(1)
	} else {
		w.put(0)
	}
}

// putTokens appends a marking's counts as put would. A count below
// 128 is its own one-byte uvarint, so the loop copies those bytes
// straight into the reserved buffer and falls back to put from the
// first larger count on.
func (w *fingerprintWriter) putTokens(m petri.Marking) {
	n := len(w.buf)
	dst := w.buf[n : n+len(m)]
	for i, v := range m {
		if uint32(v) >= 0x80 {
			w.buf = w.buf[:n+i]
			for _, v := range m[i:] {
				w.put(int(v))
			}
			return
		}
		dst[i] = byte(v)
	}
	w.buf = w.buf[:n+len(m)]
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
