// Package server implements the resident synthesis service behind
// cmd/qss-server: one warm process multiplexing synthesis requests onto
// its content-addressed reply cache, so a repeat request costs a hash
// and a map lookup instead of a synthesis, for as long as the process
// lives rather than for one CLI invocation.
//
// The package supplies four pieces and keeps them separable:
//
//   - Handlers: POST /v1/synthesize (FlowC + netlist JSON in, generated
//     C + task/bound manifest + cache stats out), GET /healthz (process
//     liveness), GET /readyz (admission readiness; non-200 during
//     drain), GET /metrics (Prometheus text exposition).
//   - Admission: a bounded queue in front of a fixed number of
//     synthesis slots. Requests beyond the queue bound are rejected
//     immediately with 429 so one burst cannot convert the server into
//     an unbounded buffer; queued requests honor their own deadlines.
//   - Budgets: each request may name a MaxNodes state budget and a
//     timeout, both clamped to server-configured caps, so one huge net
//     degrades into one bounded failure instead of starving the pool.
//   - Lifecycle: Drain flips readiness off, refuses new synthesis work
//     and waits for in-flight requests under a deadline.
//     cmd/qss-server wires it to SIGTERM.
//
// Synthesis outcomes are request-scoped, and core keeps no state
// between calls: the only state the handlers share is the Server's own
// reply cache (cache.go), up to 1,024 replies of a few KB each.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/petri"
	"repro/internal/sched"
)

// Config carries the operator-facing knobs of a Server. The zero value
// is usable: every field has a serving default.
type Config struct {
	// MaxConcurrent bounds simultaneously executing syntheses (slot
	// count). 0 = GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a slot; an arrival beyond it
	// is answered 429 immediately. 0 = 4x MaxConcurrent.
	MaxQueue int
	// MaxNodes caps the per-request state budget. A request asking for
	// more (or asking for nothing) gets this cap. 0 =
	// sched.DefaultMaxNodes.
	MaxNodes int
	// DefaultTimeout is the per-request synthesis deadline when the
	// request names none; MaxTimeout caps request-supplied values.
	// Zeros default to 30s / 2m.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DrainTimeout bounds how long Drain waits for in-flight requests.
	// 0 = 30s.
	DrainTimeout time.Duration
	// Log receives operational one-liners; nil uses the stdlib default
	// logger.
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.MaxNodes <= 0 {
		// A concrete number, so the response can report the budget a
		// request actually ran under.
		c.MaxNodes = sched.DefaultMaxNodes
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Log == nil {
		c.Log = log.Default()
	}
	return c
}

// Server is the resident synthesis service. Create with New, serve its
// Handler, and call Drain before process exit.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *metrics
	cache   *replyCache

	slots   chan struct{} // admission slots; len == executing requests
	queued  chan struct{} // queue tickets; cap bounds the waiting line
	drainCh chan struct{} // closed when drain begins; wakes parked waiters

	mu        sync.Mutex
	draining  bool
	inflight  sync.WaitGroup
	drainOnce sync.Once

	// synthesize runs one admitted request that missed the cache; a
	// Server field so the lifecycle tests can substitute a controllable
	// stub for the real core pipeline.
	synthesize func(ctx context.Context, req *synthesizeRequest, opt *core.Options) (*core.Result, error)
}

// New builds a Server from cfg (see Config for defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		metrics:    newMetrics(),
		cache:      &replyCache{m: map[[32]byte]*reply{}},
		slots:      make(chan struct{}, cfg.MaxConcurrent),
		queued:     make(chan struct{}, cfg.MaxQueue),
		drainCh:    make(chan struct{}),
		synthesize: defaultSynthesize,
	}
	s.metrics.setGauge(&s.metrics.ready, 1)
	s.mux.HandleFunc("POST /v1/synthesize", s.handleSynthesize)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the http.Handler serving all endpoints, wrapped in
// the panic-recovery middleware: a panicking synthesis (or any other
// handler bug) answers 500 and bumps qss_panics_total instead of
// tearing down the connection — and, under http.Server's default
// behavior, leaving nothing in the metrics about it.
func (s *Server) Handler() http.Handler { return s.recoverPanics(s.mux) }

// recoverPanics is the outermost middleware. http.ErrAbortHandler is
// re-raised (it is the sanctioned way to abort a response, not a bug).
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.metrics.addCounter(&s.metrics.panics, 1)
			s.cfg.Log.Printf("qss-server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			if !sw.wrote {
				writeError(sw, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// statusWriter records whether a handler already started the response,
// so the panic middleware knows if a 500 can still be sent.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the connection beneath.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain performs the graceful-shutdown sequence: flip readiness off
// (readyz goes 503, new synthesis requests are refused), wait for
// in-flight requests to finish under the configured DrainTimeout (or
// ctx, whichever ends first). Safe to call multiple times; later calls
// wait on the same sequence.
// The caller still owns the http.Server and should Shutdown it after
// Drain returns so health probes stay answerable during the wait.
func (s *Server) Drain(ctx context.Context) error {
	// draining is flipped under s.mu, the same lock admit takes before
	// inflight.Add: once the flag is observed set here, no later request
	// can join the wait group, so the Wait below races with nothing.
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	s.drainOnce.Do(func() { close(s.drainCh) })
	if !already {
		s.metrics.setGauge(&s.metrics.ready, 0)
		s.cfg.Log.Printf("qss-server: draining (waiting up to %v for in-flight work)", s.cfg.DrainTimeout)
	}

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		err = fmt.Errorf("server: drain deadline %v elapsed with requests in flight", s.cfg.DrainTimeout)
	case <-ctx.Done():
		err = fmt.Errorf("server: drain: %w", ctx.Err())
	}
	return err
}

// admit runs the bounded admission protocol: take a free synthesis slot
// immediately when one exists, otherwise join the bounded waiting line
// (full line → 429) and park until a slot frees up, the request's
// context ends, or a drain begins. On success the returned release func
// must be called exactly once.
func (s *Server) admit(ctx context.Context) (release func(), status int, reason string) {
	if s.Draining() {
		return nil, http.StatusServiceUnavailable, outcomeDraining
	}
	select {
	case s.slots <- struct{}{}:
	default:
		// All slots busy: queue, bounded.
		select {
		case s.queued <- struct{}{}:
		default:
			return nil, http.StatusTooManyRequests, outcomeRejected
		}
		s.metrics.addGauge(&s.metrics.queueDepth, 1)
		leaveQueue := func() {
			<-s.queued
			s.metrics.addGauge(&s.metrics.queueDepth, -1)
		}
		select {
		case s.slots <- struct{}{}:
			leaveQueue()
		case <-ctx.Done():
			leaveQueue()
			return nil, statusClientGone, outcomeCanceled
		case <-s.drainCh:
			leaveQueue()
			return nil, http.StatusServiceUnavailable, outcomeDraining
		}
	}
	// Joining the in-flight set must be ordered against Drain's flag
	// flip (see Drain); a slot won from a racing drain is handed back.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.slots
		return nil, http.StatusServiceUnavailable, outcomeDraining
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	s.metrics.addGauge(&s.metrics.inFlight, 1)
	return func() {
		<-s.slots
		s.metrics.addGauge(&s.metrics.inFlight, -1)
		s.inflight.Done()
	}, 0, ""
}

// statusClientGone is the status reported when the client abandoned the
// request while it was still queued (nginx's non-standard 499; nothing
// is usually left to read it, but logs and metrics keep the label).
const statusClientGone = 499

// defaultSynthesize is the production synthesis function: the core
// pipeline under the request's options.
func defaultSynthesize(ctx context.Context, req *synthesizeRequest, opt *core.Options) (*core.Result, error) {
	return core.SynthesizeContext(ctx, req.FlowC, req.Net, opt)
}

// requestOptions translates one request's budgets into core options,
// clamping against the server caps.
func (s *Server) requestOptions(req *synthesizeRequest) (opt *core.Options, timeout time.Duration) {
	so := &sched.Options{MaxNodes: s.cfg.MaxNodes}
	if req.MaxNodes > 0 && req.MaxNodes < so.MaxNodes {
		so.MaxNodes = req.MaxNodes
	}
	timeout = s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		// Compare in milliseconds: a huge value would overflow the
		// Duration before the clamp.
		timeout = s.cfg.MaxTimeout
		if int64(req.TimeoutMS) <= timeout.Milliseconds() {
			timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		}
	}
	return &core.Options{Sched: so}, timeout
}

// classifyError maps a synthesis failure to an HTTP status and an
// outcome label. Budget exhaustion and unschedulable systems are the
// request's fault (422); deadline expiry is 504; everything else is a
// server-side 500.
func classifyError(ctx context.Context, err error) (int, string) {
	switch {
	case ctx.Err() != nil:
		return http.StatusGatewayTimeout, outcomeTimeout
	case isRequestFault(err):
		return http.StatusUnprocessableEntity, outcomeFailed
	default:
		return http.StatusInternalServerError, outcomeFailed
	}
}

// isRequestFault reports whether the error is attributable to the
// submitted system rather than the server: parse/check/link failures,
// exhausted budgets, search spaces with no schedule, schedule sets that
// are not independent, and token counts the search would carry past
// petri.MaxTokens.
func isRequestFault(err error) bool {
	if errors.Is(err, sched.ErrNoSchedule) || errors.Is(err, sched.ErrNotIndependent) ||
		errors.Is(err, sched.ErrBudget) || errors.Is(err, petri.ErrTokenOverflow) {
		return true
	}
	msg := err.Error()
	for _, frag := range []string{"parse FlowC", "parse netlist", "core: check", "core: compile", "link:", "no uncontrollable inputs"} {
		if strings.Contains(msg, frag) {
			return true
		}
	}
	return false
}
