package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/petri"
	"repro/internal/sched"
)

// postSynth sends one synthesis request and decodes the response.
func postSynth(t *testing.T, url string, req *synthesizeRequest) (int, *synthesizeResponse, *errorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var out synthesizeResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode success body: %v", err)
		}
		return resp.StatusCode, &out, nil
	}
	var out errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode error body (status %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, nil, &out
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestSynthesizeSharedCache proves the tentpole property: sequential
// and concurrent requests against one server share one warm cache. The
// second request of identical sources reports a cache hit, returns
// byte-identical code, and is orders of magnitude faster; a concurrent
// fan-in of the same sources after warmup is all hits.
func TestSynthesizeSharedCache(t *testing.T) {
	core.ResetCache()
	srv := New(Config{MaxConcurrent: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := &synthesizeRequest{FlowC: apps.Divisors, Net: apps.DivisorsSpec}
	status, cold, _ := postSynth(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("cold request: status %d", status)
	}
	if cold.CacheHit {
		t.Fatal("cold request reported a cache hit")
	}
	if len(cold.Code) == 0 || cold.System != "divisors" {
		t.Fatalf("cold response malformed: system=%q tasks=%d", cold.System, len(cold.Tasks))
	}

	status, warm, _ := postSynth(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("warm request: status %d", status)
	}
	if !warm.CacheHit {
		t.Fatal("second identical request did not hit the shared cache")
	}
	for name, code := range cold.Code {
		if warm.Code[name] != code {
			t.Fatalf("cache hit returned different code for %s", name)
		}
	}
	// The warm path is a hash plus a map lookup (~10µs); 1ms of
	// server-side synthesis time is two orders of magnitude of headroom.
	if warm.SynthesisUS > 1000 {
		t.Errorf("warm synthesis took %dµs, want < 1000µs", warm.SynthesisUS)
	}

	// Concurrent fan-in after warmup: every request is a hit, proving
	// the handlers consult one shared cache rather than per-request
	// state.
	const fan = 8
	var wg sync.WaitGroup
	hits := make([]bool, fan)
	for i := 0; i < fan; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var out synthesizeResponse
			if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&out) == nil {
				hits[i] = out.CacheHit
			}
		}(i)
	}
	wg.Wait()
	for i, h := range hits {
		if !h {
			t.Fatalf("concurrent request %d missed the warm cache", i)
		}
	}

	// The hit counters prove it too: 1 miss (cold), >= 9 hits.
	_, metricsBody := getBody(t, ts.URL+"/metrics")
	assertMetricMin(t, metricsBody, "qss_cache_hits_total", 9)
	assertMetricMin(t, metricsBody, "qss_cache_misses_total", 1)
}

// assertMetricMin finds an unlabelled sample line and asserts its value
// is at least min.
func assertMetricMin(t *testing.T, body, name string, min float64) {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %g", &v); err != nil {
				t.Fatalf("unparsable sample %q: %v", line, err)
			}
			if v < min {
				t.Errorf("%s = %g, want >= %g", name, v, min)
			}
			return
		}
	}
	t.Errorf("metric %s not exposed", name)
}

// blockingServer builds a server whose synthesize function parks until
// release is called, then serves a precomputed real result — the
// controllable stand-in for a long synthesis. release is idempotent and
// registered as a cleanup, so a failing test never wedges the
// httptest.Server teardown behind a parked handler.
func blockingServer(t *testing.T, cfg Config) (srv *Server, started chan struct{}, release func()) {
	t.Helper()
	res, err := core.Synthesize(apps.Divisors, apps.DivisorsSpec, &core.Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	started = make(chan struct{}, 16)
	releaseCh := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(releaseCh) }) }
	t.Cleanup(release)
	srv = New(cfg)
	srv.synthesize = func(ctx context.Context, req *synthesizeRequest, opt *core.Options) (*core.Result, bool, error) {
		started <- struct{}{}
		select {
		case <-releaseCh:
			return res, false, nil
		case <-ctx.Done():
			return nil, false, fmt.Errorf("core: %w", ctx.Err())
		}
	}
	return srv, started, release
}

// TestQueueOverflow429 pins the bounded admission queue: with one slot
// and a one-deep queue, the third simultaneous request is rejected
// immediately with 429 rather than parked.
func TestQueueOverflow429(t *testing.T) {
	srv, started, release := blockingServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer release()

	req := &synthesizeRequest{FlowC: apps.Divisors, Net: apps.DivisorsSpec}
	body, _ := json.Marshal(req)

	results := make(chan int, 2)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
		if err != nil {
			results <- -1
			return
		}
		resp.Body.Close()
		results <- resp.StatusCode
	}
	go post() // A: takes the slot
	<-started
	go post() // B: parks in the queue
	// B is queued once the queue-depth gauge reads 1.
	waitGauge(t, srv, func(m *metrics) float64 { return m.queueDepth.v }, 1)

	status, _, _ := postSynth(t, ts.URL, req) // C: queue full
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", status)
	}

	release()
	for i := 0; i < 2; i++ {
		if got := <-results; got != http.StatusOK {
			t.Fatalf("admitted request finished with status %d", got)
		}
	}
}

// waitGauge polls a registry gauge until it reaches want (the tests'
// only ordering dependency on handler goroutines).
func waitGauge(t *testing.T, srv *Server, read func(*metrics) float64, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		srv.metrics.mu.Lock()
		v := read(srv.metrics)
		srv.metrics.mu.Unlock()
		if v == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("gauge never reached %g", want)
}

// TestDrainLifecycle pins the graceful-drain contract: /readyz flips
// non-200 the moment drain begins while an admitted request is still
// running, new synthesis requests are refused with 503, the in-flight
// request completes successfully, and Drain returns once it has.
func TestDrainLifecycle(t *testing.T) {
	srv, started, release := blockingServer(t, Config{MaxConcurrent: 2, DrainTimeout: 10 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer release()

	if status, _ := getBody(t, ts.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("readyz before drain: %d", status)
	}

	req := &synthesizeRequest{FlowC: apps.Divisors, Net: apps.DivisorsSpec}
	body, _ := json.Marshal(req)
	inflightDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
		if err != nil {
			inflightDone <- -1
			return
		}
		resp.Body.Close()
		inflightDone <- resp.StatusCode
	}()
	<-started

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(context.Background()) }()

	// Readiness flips off while the request is still in flight.
	waitReadyz(t, ts.URL, http.StatusServiceUnavailable)
	select {
	case <-inflightDone:
		t.Fatal("in-flight request finished before it was released; test is vacuous")
	default:
	}

	// Liveness stays green; new synthesis work is refused.
	if status, _ := getBody(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz during drain: %d", status)
	}
	if status, _, errResp := postSynth(t, ts.URL, req); status != http.StatusServiceUnavailable {
		t.Fatalf("synthesize during drain: status %d (%v)", status, errResp)
	}

	// The in-flight request finishes, and only then does Drain return.
	release()
	if status := <-inflightDone; status != http.StatusOK {
		t.Fatalf("in-flight request finished with status %d, want 200", status)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Drain is idempotent.
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

func waitReadyz(t *testing.T, url string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		status, _ := getBody(t, url+"/readyz")
		if status == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("readyz never reached %d", want)
}

// TestDrainDeadline: a request that never finishes makes Drain report
// the deadline instead of hanging forever.
func TestDrainDeadline(t *testing.T) {
	srv, started, release := blockingServer(t, Config{MaxConcurrent: 1, DrainTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer release()

	req := &synthesizeRequest{FlowC: apps.Divisors, Net: apps.DivisorsSpec}
	body, _ := json.Marshal(req)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	if err := srv.Drain(context.Background()); err == nil {
		t.Fatal("drain with a hung request returned nil, want deadline error")
	}
}

// TestRequestBudgets pins the per-request budget clamps: a tiny
// MaxNodes budget turns a schedulable system into a bounded 422, a
// tiny timeout into a 504 and a huge one into MaxTimeout — either way
// the server survives to serve the next request.
func TestRequestBudgets(t *testing.T) {
	core.ResetCache()
	srv := New(Config{MaxConcurrent: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// State budget: 2 nodes cannot hold the divisors marking graph.
	status, _, errResp := postSynth(t, ts.URL, &synthesizeRequest{
		FlowC: apps.Divisors, Net: apps.DivisorsSpec, MaxNodes: 2,
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("budget-starved request: status %d (%v), want 422", status, errResp)
	}

	// Deadline: park the synthesis via the stub until the context ends.
	srv.synthesize = func(ctx context.Context, req *synthesizeRequest, opt *core.Options) (*core.Result, bool, error) {
		<-ctx.Done()
		return nil, false, fmt.Errorf("core: %w", ctx.Err())
	}
	status, _, _ = postSynth(t, ts.URL, &synthesizeRequest{
		FlowC: apps.Divisors, Net: apps.DivisorsSpec, TimeoutMS: 1,
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request: status %d, want 504", status)
	}

	// A timeout too large for a Duration in nanoseconds is clamped to
	// MaxTimeout, not wrapped into a deadline already past.
	left := make(chan time.Duration, 1)
	srv.synthesize = func(ctx context.Context, req *synthesizeRequest, opt *core.Options) (*core.Result, bool, error) {
		deadline, _ := ctx.Deadline()
		left <- time.Until(deadline)
		return defaultSynthesize(ctx, req, opt)
	}
	status, _, errResp = postSynth(t, ts.URL, &synthesizeRequest{
		FlowC: apps.Divisors, Net: apps.DivisorsSpec, TimeoutMS: 10_000_000_000_000,
	})
	select {
	case d := <-left:
		if d <= 0 || d > srv.cfg.MaxTimeout {
			t.Errorf("timeout_ms 1e13: deadline %v away, want in (0, %v]", d, srv.cfg.MaxTimeout)
		}
	default:
		t.Error("timeout_ms 1e13: the request never reached synthesis")
	}
	if status != http.StatusOK {
		t.Fatalf("timeout_ms 1e13: status %d (%v), want 200", status, errResp)
	}

	// The server still works afterwards.
	srv.synthesize = defaultSynthesize
	status, res, _ := postSynth(t, ts.URL, &synthesizeRequest{FlowC: apps.Divisors, Net: apps.DivisorsSpec})
	if status != http.StatusOK || len(res.Code) == 0 {
		t.Fatalf("request after failures: status %d", status)
	}
}

// TestPanicRecovery: a panicking synthesis is a bug, not an outage —
// the middleware answers 500, counts it, and the server keeps serving.
func TestPanicRecovery(t *testing.T) {
	core.ResetCache()
	srv := New(Config{MaxConcurrent: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.synthesize = func(ctx context.Context, req *synthesizeRequest, opt *core.Options) (*core.Result, bool, error) {
		panic("synthesis exploded")
	}
	status, _, errResp := postSynth(t, ts.URL, &synthesizeRequest{FlowC: apps.Divisors, Net: apps.DivisorsSpec})
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking synthesis: status %d (%+v), want 500", status, errResp)
	}

	// The next request — on the same process, same pool of slots —
	// succeeds, and the panic shows up in the metrics.
	srv.synthesize = defaultSynthesize
	status, res, _ := postSynth(t, ts.URL, &synthesizeRequest{FlowC: apps.Divisors, Net: apps.DivisorsSpec})
	if status != http.StatusOK || len(res.Code) == 0 {
		t.Fatalf("request after panic: status %d", status)
	}
	_, metricsBody := getBody(t, ts.URL+"/metrics")
	assertMetricMin(t, metricsBody, "qss_panics_total", 1)
}

// panicOrder is an ECS order that panics on first use.
type panicOrder struct{}

func (panicOrder) Sort(*sched.OrderContext, []*petri.ECS) []*petri.ECS {
	panic("order exploded")
}

// twoSources is a system of two independent one-process pipelines, so
// its two schedule searches run on pool goroutines.
const twoSources = `
PROCESS a (In DPORT go, Out DPORT out) {
  int v;
  while (1) {
    READ_DATA(go, &v, 1);
    WRITE_DATA(out, v, 1);
  }
}

PROCESS b (In DPORT go, Out DPORT out) {
  int v;
  while (1) {
    READ_DATA(go, &v, 1);
    WRITE_DATA(out, v + 1, 1);
  }
}
`

const twoSourcesSpec = `
system two
input ga -> a.go uncontrollable
output a.out -> oa
input gb -> b.go uncontrollable
output b.out -> ob
`

// TestSearchPanicRecovery: a panic inside a schedule search, which runs
// on a pool goroutine rather than the handler's, also answers 500 and
// is counted, instead of killing the server.
func TestSearchPanicRecovery(t *testing.T) {
	srv := New(Config{MaxConcurrent: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.synthesize = func(ctx context.Context, req *synthesizeRequest, opt *core.Options) (*core.Result, bool, error) {
		opt.Sched.Engine = sched.EngineTreeExhaustive
		opt.Sched.Order = panicOrder{}
		return defaultSynthesize(ctx, req, opt)
	}
	status, _, errResp := postSynth(t, ts.URL, &synthesizeRequest{FlowC: twoSources, Net: twoSourcesSpec})
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking search: status %d (%+v), want 500", status, errResp)
	}
	_, metricsBody := getBody(t, ts.URL+"/metrics")
	assertMetricMin(t, metricsBody, "qss_panics_total", 1)
}

// TestBadRequests pins the 400/422 classification.
func TestBadRequests(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"empty body", ``, http.StatusBadRequest},
		{"not json", `{`, http.StatusBadRequest},
		{"missing net", `{"flowc":"PROCESS p (In DPORT a) { int x; while (1) { READ_DATA(a, &x, 1); } }"}`, http.StatusBadRequest},
		{"unparsable flowc", `{"flowc":"not flowc","net":"system x\ninput a -> p.a uncontrollable"}`, http.StatusUnprocessableEntity},
	} {
		resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// An unschedulable but well-formed system is the request's fault.
	status, _, errResp := postSynth(t, ts.URL, &synthesizeRequest{
		FlowC: apps.FalsePathPlain, Net: apps.FalsePathPlainSpec,
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("unschedulable system: status %d (%v), want 422", status, errResp)
	}

	// So is a schedule set that is not independent, as core wraps it.
	srv.synthesize = func(context.Context, *synthesizeRequest, *core.Options) (*core.Result, bool, error) {
		return nil, false, fmt.Errorf("core: %w", fmt.Errorf("%w: place p0 varies", sched.ErrNotIndependent))
	}
	status, _, errResp = postSynth(t, ts.URL, &synthesizeRequest{FlowC: apps.Divisors, Net: apps.DivisorsSpec})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("schedules not independent: status %d (%v), want 422", status, errResp)
	}
}

// TestTokenCountLimit: an item count of 2^31, one past petri.MaxTokens,
// is the request's fault — the FlowC checker rejects it, so the answer
// is a 422 naming the limit, and nothing panics.
func TestTokenCountLimit(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, _, errResp := postSynth(t, ts.URL, &synthesizeRequest{
		FlowC: "PROCESS p (In DPORT a) { int x[2147483647]; while (1) { READ_DATA(a, x, 2147483648); } }",
		Net:   "system x\ninput a -> p.a uncontrollable",
	})
	if status != http.StatusUnprocessableEntity || !strings.Contains(errResp.Error, "item count 2147483648 above 2147483647") {
		t.Fatalf("item count 2^31: status %d (%+v), want 422 naming the limit", status, errResp)
	}
	// Counts at the limit check, but a second burst of 2^31-1 items on
	// a channel whose structural degree is above the limit overflows
	// in the schedule search: the request's fault too.
	status, _, errResp = postSynth(t, ts.URL, &synthesizeRequest{
		FlowC: "PROCESS prod (In DPORT trig, Out DPORT o) { int t; int b[2147483647]; while (1) { READ_DATA(trig, &t, 1); WRITE_DATA(o, b, 2147483647); } }\n" +
			"PROCESS cons (In DPORT i) { int b[2147483647]; while (1) { READ_DATA(i, b, 2147483647); } }",
		Net: "system x\ninput trig -> prod.trig uncontrollable\nchannel c prod.o -> cons.i",
	})
	if status != http.StatusUnprocessableEntity || !strings.Contains(errResp.Error, "token count exceeds MaxTokens") {
		t.Fatalf("overflowing search: status %d (%+v), want 422 naming the overflow", status, errResp)
	}
	_, metricsBody := getBody(t, ts.URL+"/metrics")
	if v, ok := scrapeGauge(metricsBody, "qss_panics_total"); !ok || v != 0 {
		t.Fatalf("qss_panics_total = %v (found %v), want 0", v, ok)
	}
}

// TestRequestBodyBudgetEdge pins the request-body budget at its edge:
// a valid request padded with JSON whitespace to exactly
// maxRequestBody bytes is synthesized, and one byte more is refused
// with 400 before the body is decoded.
func TestRequestBodyBudgetEdge(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	app, err := json.Marshal(&synthesizeRequest{FlowC: apps.Divisors, Net: apps.DivisorsSpec})
	if err != nil {
		t.Fatal(err)
	}
	body := append(app, bytes.Repeat([]byte{' '}, maxRequestBody-len(app))...)
	post := func(b []byte) (int, errorResponse) {
		resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorResponse
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("decode error body (status %d): %v", resp.StatusCode, err)
			}
		}
		return resp.StatusCode, e
	}

	if status, e := post(body); status != http.StatusOK {
		t.Fatalf("%d-byte body: status %d (%s), want 200", len(body), status, e.Error)
	}
	over := append(body, ' ')
	status, e := post(over)
	if status != http.StatusBadRequest || !strings.Contains(e.Error, "body exceeds 8388608 bytes") {
		t.Fatalf("%d-byte body: status %d (%q), want 400 naming the 8388608-byte budget", len(over), status, e.Error)
	}
}

// TestStalledBodyFreesSlot: a client that sends its headers and one
// byte of body, then stalls, holds the only synthesis slot for at most
// bodyReadTimeout. It is then answered 400, and the request queued
// behind it is served.
func TestStalledBodyFreesSlot(t *testing.T) {
	defer func(d time.Duration) { bodyReadTimeout = d }(bodyReadTimeout)
	bodyReadTimeout = 200 * time.Millisecond
	srv := New(Config{MaxConcurrent: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	stalled, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "POST /v1/synthesize HTTP/1.1\r\nHost: qss\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{"); err != nil {
		t.Fatal(err)
	}
	waitGauge(t, srv, func(m *metrics) float64 { return m.inFlight.v }, 1)

	body, err := json.Marshal(&synthesizeRequest{FlowC: apps.Divisors, Net: apps.DivisorsSpec})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("request behind the stalled one: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request behind the stalled one: status %d, want 200", resp.StatusCode)
	}

	stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
	sresp, err := http.ReadResponse(bufio.NewReader(stalled), nil)
	if err != nil {
		t.Fatalf("stalled request: %v", err)
	}
	defer sresp.Body.Close()
	var e errorResponse
	if err := json.NewDecoder(sresp.Body).Decode(&e); err != nil {
		t.Fatalf("stalled request: decode error body (status %d): %v", sresp.StatusCode, err)
	}
	if sresp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "timeout") {
		t.Fatalf("stalled request: status %d (%q), want 400 naming the timeout", sresp.StatusCode, e.Error)
	}
}

// TestResponseMatchesCLI pins the service contract the smoke test
// checks end to end: the code map and bounds of a /v1/synthesize
// response are byte-identical to what the library path produces.
func TestResponseMatchesCLI(t *testing.T) {
	want, err := core.Synthesize(apps.MultiRate, apps.MultiRateSpec, &core.Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("in-process", func(t *testing.T) {
		core.ResetCache()
		srv := New(Config{})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		assertResponseMatches(t, ts.URL, want)
	})
}

// assertResponseMatches posts the multirate app and compares the
// response with the library path's result.
func assertResponseMatches(t *testing.T, url string, want *core.Result) {
	t.Helper()
	status, got, _ := postSynth(t, url, &synthesizeRequest{FlowC: apps.MultiRate, Net: apps.MultiRateSpec})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(got.Code) != len(want.Code) {
		t.Fatalf("task count: got %d, want %d", len(got.Code), len(want.Code))
	}
	for name, code := range want.Code {
		if got.Code[name] != code {
			t.Errorf("task %s differs from the library path", name)
		}
	}
	for _, ch := range want.Sys.Channels {
		if got.Bounds[ch.Spec.Name] != want.Bounds[ch.Place.ID] {
			t.Errorf("bound %s: got %d, want %d", ch.Spec.Name, got.Bounds[ch.Spec.Name], want.Bounds[ch.Place.ID])
		}
	}
}

// TestStoreHotBytesServer: after a real synthesis the server's code is
// byte-identical to the library path, and the store-residency gauge
// has moved: qss_store_hot_bytes is positive, and it is the only
// qss_store_ series /metrics exports.
func TestStoreHotBytesServer(t *testing.T) {
	core.ResetCache()
	want, err := core.Synthesize(apps.MultiRate, apps.MultiRateSpec, &core.Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}

	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status, got, _ := postSynth(t, ts.URL, &synthesizeRequest{FlowC: apps.MultiRate, Net: apps.MultiRateSpec, DisableCache: true})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	for name, code := range want.Code {
		if got.Code[name] != code {
			t.Errorf("task %s differs from the library path", name)
		}
	}

	status, body := getBody(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	if v, ok := scrapeGauge(body, "qss_store_hot_bytes"); !ok || v <= 0 {
		t.Errorf("qss_store_hot_bytes = %v (present %v), want > 0 after a synthesis:\n%s", v, ok, body)
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "qss_store_") && !strings.HasPrefix(line, "qss_store_hot_bytes ") {
			t.Errorf("unexpected store series %q", line)
		}
	}
}

// scrapeGauge pulls one unlabelled sample value out of a rendered
// /metrics body.
func scrapeGauge(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+" %g", &v); err == nil && strings.HasPrefix(line, name+" ") {
			return v, true
		}
	}
	return 0, false
}
