// Command qssd is a standalone distributed-exploration worker: it
// dials a coordinator (a run started with -dist-workers and
// -dist-endpoint on cmd/qssbatch, cmd/pfcbench or cmd/qss-server, or
// any caller of dist.Listen), then serves exploration sessions —
// holding the marking vectors and enabled sets of the hash shards it
// owns and expanding the frontier states in those shards — until the
// coordinator closes the connection.
//
// Usage:
//
//	qssd -connect unix:/path/to.sock
//	qssd -connect tcp:host:port [-timeout 30s] [-dial-attempts N]
//
// One qssd process is one worker; start as many as the coordinator was
// told to await. The worker must be built from the same tree as the
// coordinator: a wire-protocol mismatch is refused at hello. The
// worker freezes the vectors of committed levels into an on-disk delta
// segment exactly when its coordinator freezes its own store (the
// coordinator's -freeze-levels), so its resident store cost stops
// scaling with the marking width. Determinism is the coordinator's
// job: any number of workers, frozen or all-hot, on any machines,
// produces byte-identical results.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/dist"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	connect := flag.String("connect", "", "coordinator endpoint (unix:/path, tcp:host:port, or a bare unix-socket path)")
	timeout := flag.Duration("timeout", 30*time.Second, "how long to keep retrying the initial dial")
	dialAttempts := flag.Int("dial-attempts", 0, "cap the initial-dial retries (exponential backoff with jitter); 0 retries until -timeout expires")
	flag.Parse()
	if *connect == "" {
		fmt.Fprintln(os.Stderr, "qssd: -connect is required")
		flag.Usage()
		return 2
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "qssd: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		return 2
	}
	if err := dist.Serve(*connect, *timeout, dist.WorkerOptions{DialAttempts: *dialAttempts}); err != nil {
		fmt.Fprintln(os.Stderr, "qssd:", err)
		return 1
	}
	return 0
}
