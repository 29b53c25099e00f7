# CI entry points for the quasi-static synthesis repro.
#
#   make ci          — everything below through fuzz-smoke, in order
#   make build       — compile all packages
#   make vet         — static analysis, and fails on (and names) any file
#                      gofmt would rewrite; also vets qssbench/, which
#                      compiles the benchmark against the checkout (a
#                      name it uses that goes fails here, in seconds)
#   make test        — unit, property and determinism tests under -race
#   make dist-matrix — the ExploreDist determinism matrix alone: every
#                      example app's net and the reachability nets
#                      explored on real spawned worker processes,
#                      byte-identical to the inline exploration (also
#                      part of the race test suite; this target is the
#                      CI job's entry point and a focused local repro
#                      command). Synthesis never runs on dist: its
#                      source-worker matrix is internal/core's
#                      TestDeterminismMatrix
#   make dist-memory — the trimmed-replica memory gate: per-worker
#                      store bytes at 2 workers <= 0.75x the replica
#                      of a single worker holding every state, plus
#                      the ~1/N scaling curve (exact live byte counts,
#                      machine-independent)
#   make bytes-gates — the allocation gates of the two searches: serial
#                      reachability of the 161k-state ExploreLarge net
#                      allocates <= 122 B per state, and one cold PFC
#                      synthesis <= 124 B per state its search interns
#                      (exact, machine-independent counts; -v prints
#                      both figures)
#   make dist-chaos  — the hello handshake (pid round trip, refusal of
#                      another protocol version) and the seeded
#                      fault-injection matrix: heartbeat death
#                      detection, kill/sever/delay faults over
#                      pipe pools, and a real spawned worker SIGKILLed
#                      mid-exploration with respawn + re-init recovery
#                      (the init reseeds the replica) — every recovered
#                      session byte-identical to the inline exploration,
#                      an unrecoverable one an error.
#                      QSS_CHAOS_SEED/QSS_CHAOS_ROUNDS widen the sweep
#   make server-smoke— build the real qss-server binary, start it, and
#                      exercise /healthz, /readyz, /metrics and a real
#                      /v1/synthesize whose returned C must be
#                      byte-identical to the golden files
#   make pnml-suite  — the PNML conformance matrix: every vendored
#                      interchange net under internal/pnml/testdata
#                      explored serial and on spawned worker processes,
#                      asserting byte-identical ReachResult fingerprints, plus
#                      the round-trip fixed point and the corpus
#                      export-reach property
#   make qssbench-selftest
#                    — the benchmark harness's own tests (qssbench/ is a
#                      nested module, so `go test ./...` never builds
#                      it): catches a change to an API it calls before
#                      the next benchmark run does
#   make bench       — every benchmark once (shape assertions, no timing)
#   make benchgate   — benchmark-regression gate vs bench_baseline.json:
#                      five runs at GOMAXPROCS=1 (the baseline's
#                      setting); fails on B/op or allocs/op above the
#                      baseline (REGRESSION) or below it (STALE: record
#                      the gain with `make baseline`) by more than twice
#                      the runs' spread (0.5% at least, 5% at most).
#                      ns/op is written to .bench_build/BENCH_<date>.json
#                      (ignored), not gated. A performance change
#                      commits its snapshot, written with
#                      `go run ./cmd/benchdiff -out BENCH_<date>.json`.
#                      Run it on the baseline's Go release
#   make fuzz-smoke  — short-budget fuzz pass over all fuzz targets; each
#                      leg minimizes a new input for at most 1s, so its
#                      budget goes to executing inputs, not to Go's 60s
#                      default minimization
#   make coverage    — race tests with a coverage profile; prints
#                      per-package totals and writes coverage.out
#   make baseline    — refresh bench_baseline.json on this machine
#                      (also at GOMAXPROCS=1)

GO ?= go
FUZZTIME ?= 5s

.PHONY: ci build vet test dist-matrix dist-memory dist-chaos bytes-gates server-smoke pnml-suite qssbench-selftest bench benchgate baseline fuzz-smoke coverage

ci: build vet test dist-matrix dist-memory bytes-gates dist-chaos server-smoke pnml-suite qssbench-selftest bench benchgate fuzz-smoke

pnml-suite:
	$(GO) test -race -count=1 -v -run 'TestPNMLSuite|TestPNMLRoundTrip' ./internal/pnml
	$(GO) test -race -count=1 -v -run 'TestCorpusExportReach' ./internal/corpus

dist-matrix:
	$(GO) test -race -count=1 -v -run 'TestDeterminismMatrix|TestReachMatrix|TestPFCBudgetEdgeDist' ./internal/dist

dist-memory:
	$(GO) test -race -count=1 -v -run 'TestDistTrimmedMemoryGate|TestDistTrimmedMemoryScaling' ./internal/dist

bytes-gates:
	$(GO) test -count=1 -v -run 'TestExploreLargeBytes|TestPFCSearchBytes' .

dist-chaos:
	$(GO) test -race -count=1 -v -run 'TestHelloPidRoundTrip|TestHelloVersionMismatch|TestHeartbeatTimeout|TestChaosPipeMatrix|TestChaosSpawnedKill' ./internal/dist

server-smoke:
	$(GO) test -count=1 -v -run 'TestServerSmoke' ./cmd/qss-server

qssbench-selftest:
	cd qssbench && $(GO) test -count=1 ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	cd qssbench && $(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt would reformat:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test -race ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

benchgate:
	$(GO) run ./cmd/benchdiff

baseline:
	$(GO) run ./cmd/benchdiff -update

fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/flowc
	$(GO) test -run='^$$' -fuzz=FuzzExplore -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/petri
	$(GO) test -run='^$$' -fuzz=FuzzPNMLParse -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/pnml
	$(GO) test -run='^$$' -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/link
	$(GO) test -run='^$$' -fuzz=FuzzDistFrames -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/dist

coverage:
	$(GO) test -race -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1
