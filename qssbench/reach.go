package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/dist"
	"repro/internal/petri"
	"repro/internal/pnml"
)

// suiteDir holds the vendored PNML nets, relative to the repository
// root the benchmark runs from.
const suiteDir = "internal/pnml/testdata/suite"

// ringCount is fixed, and ringLengths keeps the product between 155000
// and 11^5 = 161051 states: every seed yields the same size class, so
// the cost per op does not drift with the seed. (Just above 161051 the
// reachability arrays take one more growth step and an op allocates a
// fifth more.)
const ringCount = 5

// ringLengths draws the ring lengths of the generated net from the seed.
func ringLengths(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	for {
		ls := make([]int, ringCount)
		prod := 1
		for i := range ls {
			ls[i] = 9 + rng.Intn(5)
			prod *= ls[i]
		}
		if prod >= 155000 && prod <= 161051 {
			return ls
		}
	}
}

// ringNet builds independent token rings, one token each, whose
// reachable markings are the product of the ring positions: prod(lengths)
// states, each with one enabled transition per ring. As in the
// repository's ExploreLarge benchmark, every ring transition also
// self-loops on a per-ring fuel place, widening its preset.
func ringNet(lengths []int) *petri.Net {
	n := petri.New(fmt.Sprintf("rings-%v", lengths))
	for r, l := range lengths {
		fuel := n.AddPlace(fmt.Sprintf("fuel%d", r), petri.PlaceChannel, 1)
		var ps []*petri.Place
		for s := 0; s < l; s++ {
			init := 0
			if s == 0 {
				init = 1
			}
			ps = append(ps, n.AddPlace(fmt.Sprintf("r%d_%d", r, s), petri.PlaceInternal, init))
		}
		for s := 0; s < l; s++ {
			t := n.AddTransition(fmt.Sprintf("t%d_%d", r, s), petri.TransNormal)
			n.AddArc(ps[s], t, 1)
			n.AddArcTP(t, ps[(s+1)%l], 1)
			n.AddSelfLoop(fuel, t, 1)
		}
	}
	return n
}

func product(ls []int) int {
	p := 1
	for _, l := range ls {
		p *= l
	}
	return p
}

// pnmlDoc is one input of the analyze workload: an interchange document
// and the exploration budget it is analyzed under.
type pnmlDoc struct {
	name string
	data []byte
	opt  pnml.AnalyzeOptions
}

// suiteOpts are the budgets TestPNMLSuite gives the vendored nets.
var suiteOpts = map[string]pnml.AnalyzeOptions{
	"unbounded-counter.pnml": {MaxMarkings: 4000, MaxTokensPerPlace: 6},
	"multirate-burst.pnml":   {MaxMarkings: 50000},
}

var defaultSuiteOpts = pnml.AnalyzeOptions{MaxMarkings: 100000}

// ringDoc generates the seeded ring net and exports it to PNML.
func ringDoc(seed int64) (pnmlDoc, []int, error) {
	ls := ringLengths(seed)
	data, err := pnml.ExportBytes(ringNet(ls))
	if err != nil {
		return pnmlDoc{}, nil, err
	}
	return pnmlDoc{name: "rings", data: data, opt: pnml.AnalyzeOptions{MaxMarkings: product(ls) + 1}}, ls, nil
}

// analyzeInputs builds the analyze workload's input set: the seeded ring
// net first, then the vendored suite.
func analyzeInputs(seed int64) ([]pnmlDoc, []int, error) {
	ring, ls, err := ringDoc(seed)
	if err != nil {
		return nil, nil, err
	}
	docs := []pnmlDoc{ring}
	files, err := filepath.Glob(filepath.Join(suiteDir, "*.pnml"))
	if err != nil || len(files) == 0 {
		return nil, nil, fmt.Errorf("no PNML suite under %s", suiteDir)
	}
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, nil, err
		}
		opt, ok := suiteOpts[filepath.Base(f)]
		if !ok {
			opt = defaultSuiteOpts
		}
		docs = append(docs, pnmlDoc{name: filepath.Base(f), data: data, opt: opt})
	}
	return docs, ls, nil
}

// reachFacts is what one analysis produced, kept for the checks.
type reachFacts struct {
	states, edges, deadlocks int
	truncated                bool
	fingerprint              string
}

func factsOf(a *pnml.Analysis) reachFacts {
	return reachFacts{a.Reach.Len(), a.Edges, a.Deadlocks, a.Reach.Truncated, a.Fingerprint}
}

// checkFacts compares one pass over the input set against the closed
// form of the ring product, the known facts of the suite nets, and the
// fingerprints of a reference pass (nil for the first pass).
func checkFacts(docs []pnmlDoc, ls []int, got, ref []reachFacts) error {
	if len(got) != len(docs) {
		return fmt.Errorf("%d analyses for %d documents", len(got), len(docs))
	}
	for i, d := range docs {
		g := got[i]
		switch d.name {
		case "rings":
			if want := product(ls); g.states != want || g.edges != want*len(ls) || g.truncated {
				return fmt.Errorf("rings %v: %d states, %d edges, truncated %v; want %d states, %d edges",
					ls, g.states, g.edges, g.truncated, want, want*len(ls))
			}
		case "kanban-2.pnml":
			if g.states != 4600 || g.truncated {
				return fmt.Errorf("kanban-2: %d states (truncated %v), want 4600", g.states, g.truncated)
			}
		case "philosophers-4.pnml":
			if g.deadlocks != 1 || g.truncated {
				return fmt.Errorf("philosophers-4: %d deadlocks (truncated %v), want 1", g.deadlocks, g.truncated)
			}
		case "unbounded-counter.pnml":
			if !g.truncated {
				return fmt.Errorf("unbounded-counter: not truncated under its token cap")
			}
		}
		if ref != nil && g.fingerprint != ref[i].fingerprint {
			return fmt.Errorf("%s: fingerprint %s, reference %s", d.name, g.fingerprint, ref[i].fingerprint)
		}
	}
	return nil
}

// analyzeAll is one analyze op: import and analyze every document.
func analyzeAll(docs []pnmlDoc) ([]reachFacts, error) {
	out := make([]reachFacts, 0, len(docs))
	for _, d := range docs {
		n, err := pnml.ParseBytes(d.data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		a, err := pnml.Analyze(n, d.opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		out = append(out, factsOf(a))
	}
	return out, nil
}

// analyzeTraced is analyzeAll with pnml.Analyze replayed through its
// parts: petri's Net.Explore under the options Analyze passes, the
// bound, deadlock and edge summaries, and pnml.Fingerprint.
func analyzeTraced(t *tracer, c layerCounts, docs []pnmlDoc) ([]reachFacts, error) {
	out := make([]reachFacts, 0, len(docs))
	for _, d := range docs {
		c["pnml.doc_kb"] += float64(len(d.data)) / 1e3
		t.begin("pnml.ParseBytes")
		n, err := pnml.ParseBytes(d.data)
		t.end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		t.begin("pnml.Analyze")
		a0, o0 := heapAllocs()
		t.begin("petri.Explore")
		r := n.Explore(petri.ExploreOptions{MaxMarkings: d.opt.MaxMarkings, MaxTokensPerPlace: d.opt.MaxTokensPerPlace, FireSources: true})
		t.end()
		a1, o1 := heapAllocs()
		r.PlaceBounds()
		f := reachFacts{states: r.Len(), deadlocks: len(r.DeadlockMarkings()), truncated: r.Truncated}
		for _, es := range r.Edges {
			f.edges += len(es)
		}
		t.begin("pnml.Fingerprint")
		f.fingerprint = pnml.Fingerprint(r)
		t.end()
		t.end()
		c["petri.states"] += float64(f.states)
		c["petri.edges"] += float64(f.edges)
		c["petri.store_hot_mb"] += float64(r.Store.Mem().HotBytes) / 1e6
		c["petri.alloc_mb"] += float64(a1-a0) / 1e6
		c["_petri.objects"] += float64(o1 - o0)
		out = append(out, f)
	}
	return out, nil
}

// runAnalyze is PNML import plus serial reachability over the seeded
// ring net and the vendored suite.
func runAnalyze(b *bench) error {
	var setups []setupResult
	var docs []pnmlDoc
	var ls []int
	var ref []reachFacts
	for i := 0; i < setupRuns; i++ {
		c0, w0 := cpuSelf(), time.Now()
		d, l, err := analyzeInputs(b.opt.seed)
		if err != nil {
			return err
		}
		facts, err := analyzeAll(d)
		setups = append(setups, setupResult{cpuSelf() - c0, time.Since(w0)})
		if err == nil {
			err = checkFacts(d, l, facts, nil)
		}
		b.op(err)
		docs, ls = d, l
		if ref == nil && err == nil {
			ref = facts
		}
	}
	b.setups(setups)
	if ref == nil {
		return fmt.Errorf("warm-up analysis failed")
	}
	b.note("inputs", fmt.Sprintf("rings %v (%d states) + %d suite nets", ls, product(ls), len(docs)-1))

	window := b.opt.window
	if b.tr != nil {
		window /= 2
	}
	var samples []sample
	var lat []time.Duration
	corrupt := b.opt.corrupt
	for end := time.Now().Add(window); time.Now().Before(end); {
		m := startMeter(nil)
		facts, err := analyzeAll(docs)
		s, wall := m.stop()
		samples = append(samples, s)
		lat = append(lat, wall)
		if err == nil {
			if corrupt {
				facts[0].edges--
				corrupt = false
			}
			err = checkFacts(docs, ls, facts, ref)
		}
		b.op(err)
	}
	cpuPerOp := b.reportSamples(samples, false)
	b.note("latency", latencySummary(lat))
	if b.tr == nil {
		return nil
	}
	counts := layerCounts{}
	var traced []float64
	for end := time.Now().Add(window); time.Now().Before(end); {
		c0 := cpuSelf()
		b.tr.beginOp("op")
		facts, err := analyzeTraced(b.tr, counts, docs)
		b.tr.end()
		traced = append(traced, ms(cpuSelf()-c0))
		if err == nil {
			err = checkFacts(docs, ls, facts, ref)
		}
		b.op(err)
	}
	return b.traceMetrics(counts, cpuPerOp, median(traced))
}

// runDist explores the analyze workload's ring net through a one-worker
// dist.SpawnLocal pool; one op is one Net.ExploreDist call.
func runDist(b *bench) error {
	var setups []setupResult
	var pool *dist.Pool
	defer func() {
		if pool != nil {
			pool.Close()
		}
	}()
	var net *petri.Net
	var ls []int
	var eopt petri.ExploreOptions
	var prints []string // fingerprints of the ops, checked after the window
	var spawn time.Duration
	for i := 0; i < setupRuns; i++ {
		if pool != nil {
			if err := pool.Close(); err != nil {
				return fmt.Errorf("close pool: %w", err)
			}
			pool = nil
		}
		c0, w0 := cpuSelf(), time.Now()
		doc, l, err := ringDoc(b.opt.seed)
		if err != nil {
			return err
		}
		n, err := pnml.ParseBytes(doc.data)
		if err != nil {
			return err
		}
		s0 := cpuSelf()
		pool, err = dist.SpawnLocal(1)
		if err != nil {
			return fmt.Errorf("spawn worker: %w", err)
		}
		spawn = cpuSelf() - s0 + childrenCPU()
		eopt = petri.ExploreOptions{MaxMarkings: doc.opt.MaxMarkings, FireSources: true}
		r, err := n.ExploreDist(pool, eopt)
		c1 := cpuSelf() - c0 + childrenCPU()
		setups = append(setups, setupResult{c1, time.Since(w0)})
		if err != nil {
			b.op(err)
			continue
		}
		prints = append(prints, pnml.Fingerprint(r))
		net, ls = n, l
	}
	b.setups(setups)
	if net == nil {
		return fmt.Errorf("warm-up exploration failed")
	}
	b.note("inputs", fmt.Sprintf("rings %v (%d states)", ls, product(ls)))
	b.setLayer("dist.spawn_ms", ms(spawn))

	window := b.opt.window
	if b.tr != nil {
		window /= 2
	}
	// explore runs the window's ops; each sample adds the worker's CPU.
	explore := func(counts layerCounts) (samples []sample, lat []time.Duration) {
		for end := time.Now().Add(window); time.Now().Before(end); {
			m := startMeter(childrenCPU)
			var r *petri.ReachResult
			var err error
			if counts == nil {
				r, err = net.ExploreDist(pool, eopt)
			} else {
				k0 := childrenCPU()
				b.tr.beginOp("op")
				b.tr.begin("petri.ExploreDist")
				r, err = net.ExploreDist(pool, eopt)
				b.tr.end()
				b.tr.end()
				counts["dist.worker_cpu_ms"] += ms(childrenCPU() - k0)
				countSession(counts, pool.LastSessionStats())
			}
			s, wall := m.stop()
			if err != nil {
				// A failed session poisons the pool: count it and stop.
				b.op(err)
				break
			}
			samples = append(samples, s)
			lat = append(lat, wall)
			// Outside the measured op: the fingerprint, checked after
			// the window against the serial reference.
			prints = append(prints, pnml.Fingerprint(r))
		}
		return samples, lat
	}
	samples, lat := explore(nil)
	cpuPerOp := b.reportSamples(samples, false)
	b.note("latency", latencySummary(lat))
	var counts layerCounts
	var traced []float64
	if b.tr != nil {
		counts = layerCounts{}
		ts, _ := explore(counts)
		for _, s := range ts {
			traced = append(traced, ms(s.cpu))
		}
	}
	want, err := serialFingerprint(net, eopt.MaxMarkings, ls)
	if err != nil {
		return err
	}
	if b.opt.corrupt {
		prints[len(prints)-1] = "corrupt"
	}
	for i, p := range prints {
		if p != want {
			b.op(fmt.Errorf("op %d: fingerprint %s, serial %s", i, p, want))
		} else {
			b.op(nil)
		}
	}
	if b.tr == nil {
		return nil
	}
	return b.traceMetrics(counts, cpuPerOp, median(traced))
}

// serialFingerprint is the dist workload's reference: the fingerprint
// of the ring net through pnml.Analyze's serial path, whose counts must
// match the closed form.
func serialFingerprint(net *petri.Net, maxMarkings int, ls []int) (string, error) {
	a, err := pnml.Analyze(net, pnml.AnalyzeOptions{MaxMarkings: maxMarkings})
	if err != nil {
		return "", fmt.Errorf("serial reference: %w", err)
	}
	if want := product(ls); a.Reach.Len() != want || a.Edges != want*len(ls) || a.Reach.Truncated {
		return "", fmt.Errorf("serial reference: %d states, %d edges; want %d states, %d edges", a.Reach.Len(), a.Edges, want, want*len(ls))
	}
	return a.Fingerprint, nil
}

// countSession records a dist session's protocol accounting.
func countSession(c layerCounts, st dist.SessionStats) {
	c["dist.levels"] += float64(st.Levels)
	c["dist.sent_kb"] += float64(st.BytesSent) / 1e3
	c["dist.recv_kb"] += float64(st.BytesRecv) / 1e3
	c["dist.chunks"] += float64(st.Chunks)
	c["dist.cand_new"] += float64(st.CandNew)
	c["dist.coord_fires"] += float64(st.CoordFires)
	c["dist.restarts"] += float64(st.Restarts)
	for _, w := range st.Workers {
		c["dist.worker_store_mb"] += float64(w.StoreBytes+w.BitsBytes) / 1e6
		c["dist.worker_cache_kb"] += float64(w.CacheBytes) / 1e3
	}
}
