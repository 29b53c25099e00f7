package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/corpus"
)

// serve sends one synthesis request straight to h under ctx and decodes
// the reply of a 200.
func serve(tb testing.TB, ctx context.Context, h http.Handler, req *synthesizeRequest) (int, *synthesizeResponse) {
	tb.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/synthesize", bytes.NewReader(body)).WithContext(ctx))
	if w.Code != http.StatusOK {
		return w.Code, nil
	}
	var out synthesizeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		tb.Fatalf("decode success body: %v", err)
	}
	return w.Code, &out
}

// TestCacheKey: a reply is keyed by the two texts and the state budget
// after clamping. Another budget is another entry; a budget above the
// server's cap clamps to the cap and shares its entry; a timeout does
// not change the reply, so it shares the entry too; other sources miss.
func TestCacheKey(t *testing.T) {
	h := New(Config{MaxNodes: 1 << 20}).Handler()
	for _, step := range []struct {
		name    string
		edit    func(*synthesizeRequest)
		hit     bool
		entries int
	}{
		{"cold", func(*synthesizeRequest) {}, false, 1},
		{"repeat", func(*synthesizeRequest) {}, true, 1},
		{"smaller budget", func(r *synthesizeRequest) { r.MaxNodes = 1 << 19 }, false, 2},
		{"budget above the cap", func(r *synthesizeRequest) { r.MaxNodes = 1 << 30 }, true, 2},
		{"timeout", func(r *synthesizeRequest) { r.TimeoutMS = 60_000 }, true, 2},
		{"other sources", func(r *synthesizeRequest) { r.FlowC, r.Net = apps.MultiRate, apps.MultiRateSpec }, false, 3},
	} {
		req := &synthesizeRequest{FlowC: apps.Divisors, Net: apps.DivisorsSpec}
		step.edit(req)
		status, res := serve(t, context.Background(), h, req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", step.name, status)
		}
		if res.CacheHit != step.hit || res.Cache.Entries != step.entries {
			t.Errorf("%s: cache_hit %v with %d entries, want %v with %d", step.name, res.CacheHit, res.Cache.Entries, step.hit, step.entries)
		}
	}
}

// TestCacheOptOut: disable_cache neither reads nor stores, and neither
// does a request whose context has already ended: it gets its error,
// not a cached 200.
func TestCacheOptOut(t *testing.T) {
	h := New(Config{}).Handler()
	req := &synthesizeRequest{FlowC: apps.Divisors, Net: apps.DivisorsSpec, DisableCache: true}
	for i := 0; i < 2; i++ {
		status, res := serve(t, context.Background(), h, req)
		if status != http.StatusOK {
			t.Fatalf("disable_cache request %d: status %d", i, status)
		}
		if res.CacheHit || res.Cache != (cacheSnapshot{}) {
			t.Errorf("disable_cache request %d: cache_hit %v, cache %+v, want a miss and an untouched cache", i, res.CacheHit, res.Cache)
		}
	}

	req.DisableCache = false
	if status, res := serve(t, context.Background(), h, req); status != http.StatusOK || res.CacheHit {
		t.Fatalf("first cached request: status %d, want a 200 miss", status)
	}
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	if status, _ := serve(t, ended, h, req); status != http.StatusGatewayTimeout {
		t.Errorf("request with an ended context: status %d, want 504", status)
	}
	status, res := serve(t, context.Background(), h, req)
	if status != http.StatusOK || !res.CacheHit {
		t.Fatalf("repeat: status %d, want a 200 hit", status)
	}
	if want := (cacheSnapshot{Hits: 1, Misses: 1, Entries: 1}); res.Cache != want {
		t.Errorf("cache %+v, want %+v: only the first cached request and its repeat look up", res.Cache, want)
	}
}

// TestCacheSpeedup enforces the headline cache property through the
// handler: a warm repeat of the PFC application is at least 10x faster
// than a cold run. Both sides do the same HTTP and JSON work; the real
// margin is two orders of magnitude (a hash and a map lookup against a
// 23,984-state search), so the 10x floor stays robust on loaded CI
// machines.
func TestCacheSpeedup(t *testing.T) {
	h := New(Config{}).Handler()
	req := &synthesizeRequest{FlowC: apps.PFC, Net: apps.PFCSpec, DisableCache: true}
	perRequest := func(rounds int) time.Duration {
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if status, _ := serve(t, context.Background(), h, req); status != http.StatusOK {
				t.Fatalf("status %d", status)
			}
		}
		return time.Since(start) / time.Duration(rounds)
	}
	cold := perRequest(3)
	req.DisableCache = false
	serve(t, context.Background(), h, req) // prime
	warm := perRequest(20)
	if warm*10 > cold {
		t.Errorf("warm cache not >=10x faster: %v cold, %v warm per request", cold, warm)
	}
}

// TestReplyCacheRetention bounds what the cache keeps alive: 200
// distinct corpus apps, shaped like the service benchmark's, go through
// one handler, and the heap they leave behind after two collections is
// at most 8 KB per app. A cache that kept each app's core.Result (ASTs,
// nets, schedules, code segments) retains about 38 KB per app.
func TestReplyCacheRetention(t *testing.T) {
	cfg := corpus.DefaultConfig()
	cfg.MaxPipelines, cfg.MaxStages = 2, 2
	corp := corpus.GenerateCorpus(1, 200, cfg)
	srv := New(Config{})
	h := srv.Handler()
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	for _, app := range corp {
		if status, res := serve(t, context.Background(), h, &synthesizeRequest{FlowC: app.FlowC, Net: app.Spec}); status != http.StatusOK || res.CacheHit {
			t.Fatalf("%s: status %d, want a 200 miss", app.Name, status)
		}
	}
	perApp := (live() - before) / int64(len(corp))
	runtime.KeepAlive(corp)
	if st := srv.cache.stats(); st.Entries != len(corp) {
		t.Fatalf("cache holds %d replies, want %d", st.Entries, len(corp))
	}
	t.Logf("%d B of heap retained per cached app", perApp)
	if perApp > 8<<10 {
		t.Errorf("%d B of heap retained per cached app, want at most %d", perApp, 8<<10)
	}
}

// BenchmarkServerWarm times a warm /v1/synthesize of the PFC
// application through the handler: after one priming request, each
// iteration decodes the request, hits the cache and encodes the reply.
func BenchmarkServerWarm(b *testing.B) {
	b.ReportAllocs()
	srv := New(Config{})
	h := srv.Handler()
	req := &synthesizeRequest{FlowC: apps.PFC, Net: apps.PFCSpec}
	if status, _ := serve(b, context.Background(), h, req); status != http.StatusOK {
		b.Fatalf("priming request: status %d", status)
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/synthesize", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
	b.StopTimer()
	if hits := srv.cache.stats().Hits; hits != int64(b.N) {
		b.Fatalf("%d cache hits over %d warm requests", hits, b.N)
	}
}
