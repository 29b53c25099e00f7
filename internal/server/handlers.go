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
	// DisableCache bypasses the shared result cache for this request
	// (forces a cold run; the result is not stored either).
	DisableCache bool `json:"disable_cache,omitempty"`
}

// synthesizeResponse is the success body of POST /v1/synthesize.
type synthesizeResponse struct {
	System string `json:"system"`
	// Tasks is the manifest: one entry per generated task, in schedule
	// order, mirroring the golden-file MANIFEST contract.
	Tasks []taskInfo `json:"tasks"`
	// Code maps task name to generated C source.
	Code map[string]string `json:"code"`
	// Bounds maps channel name to its statically guaranteed buffer
	// size.
	Bounds map[string]int `json:"bounds"`
	// CacheHit reports whether this response came from the shared
	// content-addressed cache; Cache is the process-wide counter
	// snapshot after the request (core.Stats).
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
	res, hit, err := s.synthesize(ctx, &req, opt)
	elapsed := time.Since(start)
	s.metrics.observe(s.metrics.latency, elapsed.Seconds())
	s.recordCacheState()
	if err != nil {
		status, outcome := classifyError(ctx, err)
		s.metrics.incOutcome(outcome)
		writeError(w, status, err.Error())
		return
	}
	if !req.DisableCache {
		if hit {
			s.metrics.addCounter(&s.metrics.cacheHits, 1)
		} else {
			s.metrics.addCounter(&s.metrics.cacheMisses, 1)
		}
	}
	s.recordWork(res)
	s.metrics.incOutcome(outcomeOK)
	writeJSON(w, http.StatusOK, buildResponse(res, opt, hit, elapsed))
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

// buildResponse renders a Result into the wire shape. The generated C
// is passed through byte-for-byte: the service contract is that a
// /v1/synthesize response is indistinguishable from the CLI's output
// files (golden-checked by the server smoke test).
func buildResponse(res *core.Result, opt *core.Options, hit bool, elapsed time.Duration) *synthesizeResponse {
	out := &synthesizeResponse{
		System:      res.Sys.Name,
		Code:        res.Code,
		Bounds:      map[string]int{},
		CacheHit:    hit,
		MaxNodes:    opt.Sched.MaxNodes,
		SynthesisUS: elapsed.Microseconds(),
	}
	for i, t := range res.Tasks {
		st := res.Schedules[i].Stats
		out.Tasks = append(out.Tasks, taskInfo{
			Name:             t.Name,
			Segments:         len(t.Segments),
			ScheduleNodes:    len(res.Schedules[i].Nodes),
			StatesExplored:   st.NodesCreated,
			DistinctMarkings: st.DistinctMarkings,
		})
	}
	for _, ch := range res.Sys.Channels {
		out.Bounds[ch.Spec.Name] = res.Bounds[ch.Place.ID]
	}
	cs := core.Stats()
	out.Cache = cacheSnapshot{Hits: cs.Hits, Misses: cs.Misses, Entries: cs.Entries}
	return out
}

// recordWork folds a successful synthesis into the work metrics:
// distinct markings explored and the store residency of the request's
// searches.
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

// recordCacheState refreshes the cache-entries gauge from the process
// counters.
func (s *Server) recordCacheState() {
	s.metrics.setGauge(&s.metrics.cacheEntries, float64(core.Stats().Entries))
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
	s.recordCacheState()
	var sb strings.Builder
	s.metrics.render(&sb)
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
