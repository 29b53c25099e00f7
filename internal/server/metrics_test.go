package server

import (
	"regexp"
	"strings"
	"testing"
)

// sampleLine matches a Prometheus text-format sample: a metric name,
// an optional single-label set, and a value.
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"\})? ` +
		`(-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?|\+Inf|-Inf|NaN)$`)

// TestMetricsTextFormat parses a rendered registry line by line: every
// non-comment line must be a well-formed sample, every family must
// carry HELP and TYPE comments before its samples, and the core series
// the smoke test and dashboards rely on must all be present even on a
// fresh server with no traffic.
func TestMetricsTextFormat(t *testing.T) {
	m := newMetrics()
	// Touch every instrument kind so labelled families render samples.
	m.incOutcome(outcomeOK)
	m.incOutcome(outcomeRejected)
	m.observe(m.latency, 0.0042)
	m.observe(m.latency, 2.5)

	var sb strings.Builder
	m.render(&sb, cacheSnapshot{})
	body := sb.String()

	typed := map[string]string{} // family -> TYPE
	helped := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || parts[3] == "" {
				t.Errorf("HELP without text: %q", line)
			}
			helped[parts[2]] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("unknown TYPE %q in %q", parts[3], line)
			}
			typed[parts[2]] = parts[3]
		default:
			if !sampleLine.MatchString(line) {
				t.Errorf("malformed sample line: %q", line)
				continue
			}
			name := line[:strings.IndexAny(line, "{ ")]
			family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
			if typ, ok := typed[family]; !ok {
				t.Errorf("sample %q precedes its TYPE comment", line)
			} else if typ != "histogram" && name != family {
				t.Errorf("suffixed sample %q under non-histogram family %q", name, family)
			}
			if !helped[family] {
				t.Errorf("sample %q has no HELP comment", line)
			}
		}
	}

	for _, want := range []string{
		`qss_requests_total{outcome="ok"} 1`,
		`qss_requests_total{outcome="rejected"} 1`,
		"qss_cache_hits_total 0",
		"qss_cache_misses_total 0",
		"qss_cache_entries 0",
		"qss_queue_depth 0",
		"qss_inflight 0",
		"qss_ready 0",
		"qss_states_explored_total 0",
		"qss_store_hot_bytes 0",
		"qss_panics_total 0",
		"qss_synthesis_seconds_count 2",
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("rendered metrics missing %q", want)
		}
	}
}

// TestHistogramCumulative pins the bucket semantics: each bucket counts
// all observations at or below its bound, buckets are monotone
// non-decreasing, and +Inf equals the total count.
func TestHistogramCumulative(t *testing.T) {
	m := newMetrics()
	h := m.latency // bounds 1e-5 .. 10
	for _, v := range []float64{1e-6, 5e-4, 0.02, 0.02, 3, 42} {
		m.observe(h, v)
	}
	wantCounts := []uint64{1, 1, 2, 2, 4, 4, 5} // per bound 1e-5,1e-4,1e-3,1e-2,1e-1,1,10
	for i, want := range wantCounts {
		if h.counts[i] != want {
			t.Errorf("bucket le=%g: got %d, want %d", h.bounds[i], h.counts[i], want)
		}
	}
	for i := 1; i < len(h.counts); i++ {
		if h.counts[i] < h.counts[i-1] {
			t.Errorf("buckets not cumulative at %d: %v", i, h.counts)
		}
	}
	if h.total != 6 {
		t.Errorf("total = %d, want 6", h.total)
	}
	var sb strings.Builder
	h.render(&sb)
	if !strings.Contains(sb.String(), `qss_synthesis_seconds_bucket{le="+Inf"} 6`) {
		t.Errorf("+Inf bucket != count:\n%s", sb.String())
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1:       "1",
		42:      "42",
		1e-05:   "1e-05",
		0.001:   "0.001",
		2.5:     "2.5",
		1234567: "1234567",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
