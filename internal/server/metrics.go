package server

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// A hand-rolled Prometheus registry: the repo takes no dependencies, and
// the server needs only the three classic instrument kinds — counters
// (monotone, optionally labelled), gauges (set-to-current), and one
// cumulative histogram — rendered in the text exposition format
// (https://prometheus.io/docs/instrumenting/exposition_formats/).
// Everything is mutex-guarded; the write path is a handful of integer
// ops per request, far off the synthesis hot path.

// metrics is the server's instrument set. All instruments are created
// up front so /metrics always exposes the full schema (a counter that
// has never fired still reports 0, which is what lets dashboards and
// the smoke test assert on series presence rather than traffic).
type metrics struct {
	mu sync.Mutex

	// requests by terminal outcome (ok, cache_hit folded into ok;
	// rejections and failures keep their own labels).
	requests *labeledCounter

	// admission
	queueDepth gauge // requests parked waiting for a slot
	inFlight   gauge // requests holding a slot
	ready      gauge // 1 until drain begins

	// work accounting
	latency        *histogram // server-side synthesis seconds
	statesExplored counter    // distinct markings interned across searches (misses only)
	// store residency of the last successful synthesis: bytes the
	// searches' marking stores held in RAM (0 until a request
	// completes).
	storeHotBytes gauge

	// panics answered 500 by the recovery middleware
	panics counter
}

func newMetrics() *metrics {
	return &metrics{
		requests: newLabeledCounter("qss_requests_total",
			"Synthesis requests by terminal outcome.", "outcome"),
		latency: newHistogram("qss_synthesis_seconds",
			"Server-side synthesis latency (cache hits included).",
			[]float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}),
	}
}

// The outcome labels of qss_requests_total. Declared as constants so
// handlers and tests cannot drift apart on spelling.
const (
	outcomeOK         = "ok"
	outcomeBadRequest = "bad_request"
	outcomeFailed     = "failed"   // synthesis error (unschedulable, budget, internal)
	outcomeTimeout    = "timeout"  // request deadline hit
	outcomeRejected   = "rejected" // admission queue full
	outcomeDraining   = "draining" // refused during drain
	outcomeCanceled   = "canceled" // client went away while queued
)

// render writes the whole registry in Prometheus text format, with the
// qss_cache_* series read from cs, the reply cache's own counters.
func (m *metrics) render(sb *strings.Builder, cs cacheSnapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests.render(sb)
	renderSimple(sb, "qss_cache_hits_total", "counter",
		"Synthesis requests answered from the reply cache.", float64(cs.Hits))
	renderSimple(sb, "qss_cache_misses_total", "counter",
		"Synthesis requests looked up in the reply cache and not found; each ran the full pipeline.", float64(cs.Misses))
	renderSimple(sb, "qss_cache_entries", "gauge",
		"Replies currently held by the reply cache.", float64(cs.Entries))
	renderSimple(sb, "qss_queue_depth", "gauge",
		"Requests parked in the admission queue.", m.queueDepth.v)
	renderSimple(sb, "qss_inflight", "gauge",
		"Requests currently holding a synthesis slot.", m.inFlight.v)
	renderSimple(sb, "qss_ready", "gauge",
		"1 while the server admits work, 0 once drain has begun.", m.ready.v)
	renderSimple(sb, "qss_states_explored_total", "counter",
		"Distinct markings interned across all schedule searches (cache misses only).", m.statesExplored.v)
	renderSimple(sb, "qss_store_hot_bytes", "gauge",
		"Marking-store bytes resident in RAM after the last successful synthesis.", m.storeHotBytes.v)
	renderSimple(sb, "qss_panics_total", "counter",
		"Requests that panicked and were answered 500 by the recovery middleware.", m.panics.v)
	m.latency.render(sb)
}

// counter and gauge are plain float64 cells; the registry mutex guards
// them, so they carry no synchronization of their own.
type counter struct{ v float64 }
type gauge struct{ v float64 }

func (m *metrics) addCounter(c *counter, d float64) {
	m.mu.Lock()
	c.v += d
	m.mu.Unlock()
}

func (m *metrics) setGauge(g *gauge, v float64) {
	m.mu.Lock()
	g.v = v
	m.mu.Unlock()
}

func (m *metrics) addGauge(g *gauge, d float64) {
	m.mu.Lock()
	g.v += d
	m.mu.Unlock()
}

// labeledCounter is a counter family over one label dimension.
type labeledCounter struct {
	name, help, label string
	vals              map[string]float64
}

func newLabeledCounter(name, help, label string) *labeledCounter {
	return &labeledCounter{name: name, help: help, label: label, vals: map[string]float64{}}
}

func (m *metrics) incOutcome(outcome string) {
	m.mu.Lock()
	m.requests.vals[outcome]++
	m.mu.Unlock()
}

func (c *labeledCounter) render(sb *strings.Builder) {
	fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s counter\n", c.name, c.help, c.name)
	for _, k := range sortedKeys(c.vals) {
		fmt.Fprintf(sb, "%s{%s=%q} %s\n", c.name, c.label, k, formatFloat(c.vals[k]))
	}
}

// histogram is a cumulative Prometheus histogram with fixed buckets.
type histogram struct {
	name, help string
	bounds     []float64 // upper bounds, ascending; +Inf implicit
	counts     []uint64  // counts[i] = observations <= bounds[i] (cumulative, as the text format requires)
	sum        float64
	total      uint64
}

func newHistogram(name, help string, bounds []float64) *histogram {
	return &histogram{name: name, help: help, bounds: bounds, counts: make([]uint64, len(bounds))}
}

func (m *metrics) observe(h *histogram, v float64) {
	m.mu.Lock()
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
		}
	}
	h.sum += v
	h.total++
	m.mu.Unlock()
}

func (h *histogram) render(sb *strings.Builder) {
	fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
	for i, b := range h.bounds {
		fmt.Fprintf(sb, "%s_bucket{le=%q} %d\n", h.name, formatFloat(b), h.counts[i])
	}
	fmt.Fprintf(sb, "%s_bucket{le=\"+Inf\"} %d\n", h.name, h.total)
	fmt.Fprintf(sb, "%s_sum %s\n", h.name, formatFloat(h.sum))
	fmt.Fprintf(sb, "%s_count %d\n", h.name, h.total)
}

func renderSimple(sb *strings.Builder, name, typ, help string, v float64) {
	fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, help, name, typ, name, formatFloat(v))
}

// formatFloat renders values the way Prometheus expects: shortest
// round-trip representation, no exponent for the common integral case.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
