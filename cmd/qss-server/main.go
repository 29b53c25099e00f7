// Command qss-server is the resident synthesis service: one warm
// process serving POST /v1/synthesize over HTTP, with its
// content-addressed reply cache surviving across requests — the warm
// path of repeat synthesis (2–5µs of server-side time vs 23–28ms cold
// on the PFC example, on a 2-vCPU Xeon VM) only pays off if the
// process does.
//
// Usage:
//
//	qss-server [-listen :9090] [-max-concurrent N] [-max-queue N]
//	           [-max-nodes N] [-default-timeout 30s] [-max-timeout 2m]
//	           [-drain-timeout 30s]
//
// Endpoints: POST /v1/synthesize (JSON in/out), GET /healthz
// (liveness), GET /readyz (admission readiness; 503 while draining),
// GET /metrics (Prometheus text). SIGTERM or SIGINT begins a graceful
// drain: readiness flips off, new synthesis requests are refused,
// in-flight requests finish under -drain-timeout, and the process
// exits. See docs/SERVER.md for the operations guide and JSON schemas.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/sched"
	"repro/internal/server"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		listen         = flag.String("listen", "127.0.0.1:9090", "address to serve HTTP on (host:port; port 0 picks a free port)")
		maxConcurrent  = flag.Int("max-concurrent", 0, "simultaneous syntheses (0 = GOMAXPROCS)")
		maxQueue       = flag.Int("max-queue", 0, "admission queue length beyond the concurrent slots; overflow is answered 429 (0 = 4x max-concurrent)")
		maxNodes       = flag.Int("max-nodes", 0, fmt.Sprintf("cap on the per-request state budget (0 = the search default, %d)", sched.DefaultMaxNodes))
		defaultTimeout = flag.Duration("default-timeout", 30*time.Second, "synthesis deadline for requests naming none")
		maxTimeout     = flag.Duration("max-timeout", 2*time.Minute, "cap on request-supplied timeouts")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight requests")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "", log.LstdFlags)
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "qss-server: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		return 2
	}

	srv := server.New(server.Config{
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		MaxNodes:       *maxNodes,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		DrainTimeout:   *drainTimeout,
		Log:            logger,
	})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Printf("qss-server: listen: %v", err)
		return 1
	}
	// The resolved address line is a contract: port 0 callers (tests,
	// scripts) parse it to find the server.
	logger.Printf("qss-server: listening on %s", ln.Addr())

	// Request headers must arrive within 10 s, so a client that never
	// finishes them cannot hold a connection; the handler bounds the
	// body read itself, once the request has a synthesis slot.
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	code := 0
	select {
	case got := <-sig:
		logger.Printf("qss-server: %v received, draining", got)
		if err := srv.Drain(context.Background()); err != nil {
			logger.Printf("qss-server: %v", err)
			code = 1
		}
		// Health probes stayed answerable through the drain; now stop
		// the listener and let idle keep-alives go.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Printf("qss-server: shutdown: %v", err)
			code = 1
		}
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("qss-server: serve: %v", err)
			return 1
		}
	}
	logger.Printf("qss-server: exit")
	return code
}
