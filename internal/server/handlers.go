package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
)

// synthesizeRequest is the POST /v1/synthesize body. FlowC and Net are
// the same two texts the CLI takes from -flowc and -net files; the
// budgets are optional and clamped by server configuration.
type synthesizeRequest struct {
	// FlowC is the FlowC source (one or more PROCESS definitions).
	FlowC string `json:"flowc"`
	// Net is the netlist in the textual system format.
	Net string `json:"net"`
	// MaxNodes bounds the states each schedule search may create;
	// 0 uses the server cap, larger values are clamped to it.
	MaxNodes int `json:"max_nodes,omitempty"`
	// TimeoutMS bounds server-side synthesis time; 0 uses the server
	// default, larger values are clamped to the server max.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// DisableCache bypasses the server's reply cache for this request
	// (forces a cold run; the reply is not stored either).
	DisableCache bool `json:"disable_cache,omitempty"`
}

// synthesizeResponse is the success body of POST /v1/synthesize: the
// reply (system, tasks, code, bounds) and what is particular to this
// request.
type synthesizeResponse struct {
	reply
	// CacheHit reports whether the reply came from the server's
	// content-addressed cache; Cache is the snapshot of that cache's
	// counters after the request.
	CacheHit bool          `json:"cache_hit"`
	Cache    cacheSnapshot `json:"cache"`
	// MaxNodes is the state budget the request effectively ran under
	// (after server-side clamping); SynthesisUS the server-side
	// synthesis time in microseconds.
	MaxNodes    int   `json:"max_nodes"`
	SynthesisUS int64 `json:"synthesis_us"`
}

type taskInfo struct {
	Name             string `json:"name"`
	Segments         int    `json:"segments"`
	ScheduleNodes    int    `json:"schedule_nodes"`
	StatesExplored   int    `json:"states_explored"`
	DistinctMarkings int    `json:"distinct_markings"`
}

type cacheSnapshot struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// maxRequestBody bounds the request body (FlowC + netlist text); 8MiB
// is orders of magnitude above any real system description.
const maxRequestBody = 8 << 20

// bodyReadTimeout bounds reading the request body once the request
// holds a synthesis slot, so a client that stalls mid-body frees the
// slot instead of keeping it for as long as its connection stays open.
// A var only so tests can shrink it.
var bodyReadTimeout = 10 * time.Second

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	release, status, outcome := s.admit(r.Context())
	if release == nil {
		s.metrics.incOutcome(outcome)
		writeError(w, status, fmt.Sprintf("request not admitted (%s)", outcome))
		return
	}
	defer release()

	var req synthesizeRequest
	body, err := readBody(w, r)
	if err == nil && len(body) > maxRequestBody {
		err = fmt.Errorf("body exceeds %d bytes", maxRequestBody)
	}
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err == nil && (strings.TrimSpace(req.FlowC) == "" || strings.TrimSpace(req.Net) == "") {
		err = fmt.Errorf("both \"flowc\" and \"net\" must be non-empty")
	}
	if err != nil {
		s.metrics.incOutcome(outcomeBadRequest)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	opt, timeout := s.requestOptions(&req)
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	start := time.Now()
	rep, hit, err := s.answer(ctx, &req, opt)
	elapsed := time.Since(start)
	s.metrics.observe(s.metrics.latency, elapsed.Seconds())
	if err != nil {
		status, outcome := classifyError(ctx, err)
		s.metrics.incOutcome(outcome)
		writeError(w, status, err.Error())
		return
	}
	s.metrics.incOutcome(outcomeOK)
	writeJSON(w, http.StatusOK, &synthesizeResponse{
		reply:       *rep,
		CacheHit:    hit,
		Cache:       s.cache.stats(),
		MaxNodes:    opt.Sched.MaxNodes,
		SynthesisUS: elapsed.Microseconds(),
	})
}

// answer serves one admitted request from the cache or, on a miss,
// synthesizes it, records the work, and stores the reply. A request
// whose context has already ended gets its error, not a cached reply:
// otherwise cancellation would depend on what happens to be cached.
func (s *Server) answer(ctx context.Context, req *synthesizeRequest, opt *core.Options) (*reply, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, fmt.Errorf("server: %w", err)
	}
	var key [32]byte
	if !req.DisableCache {
		key = cacheKey(req.FlowC, req.Net, opt.Sched.MaxNodes)
		if rep, ok := s.cache.get(key); ok {
			return rep, true, nil
		}
	}
	res, err := s.synthesize(ctx, req, opt)
	if err != nil {
		return nil, false, err
	}
	s.recordWork(res)
	rep := newReply(res)
	if !req.DisableCache {
		s.cache.put(key, rep)
	}
	return rep, false, nil
}

// readBody reads at most maxRequestBody+1 bytes of the request body
// under bodyReadTimeout. A complete read clears the deadline, so a
// keep-alive connection's next request is unaffected. A failed one
// leaves it expired: the server's own attempt to drain the unread body
// then fails at once, and it closes the connection after the reply
// instead of waiting on the stalled client. Transports without
// deadline support read without one.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	rc := http.NewResponseController(w)
	armed := rc.SetReadDeadline(time.Now().Add(bodyReadTimeout)) == nil
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if armed && err == nil {
		// The server re-arms the deadline before the connection's next
		// request, so a failed clear changes nothing.
		_ = rc.SetReadDeadline(time.Time{})
	}
	return body, err
}

// recordWork folds a successful synthesis into the work metrics:
// distinct markings explored and the store residency of the request's
// searches. Only a run counts; a cache hit searched nothing.
func (s *Server) recordWork(res *core.Result) {
	states := 0
	var hot int64
	for _, sc := range res.Schedules {
		states += sc.Stats.DistinctMarkings
		hot += sc.Stats.StoreHotBytes
	}
	s.metrics.addCounter(&s.metrics.statesExplored, float64(states))
	s.metrics.setGauge(&s.metrics.storeHotBytes, float64(hot))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness only: a draining server is still alive.
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ready\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var sb strings.Builder
	s.metrics.render(&sb, s.cache.stats())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, sb.String())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}
