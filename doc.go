// Package repro reproduces "Task Generation and Compile-Time Scheduling
// for Mixed Data-Control Embedded Software" (Cortadella et al., DAC
// 2000): a complete quasi-static scheduling flow from FlowC process
// networks to synthesized software tasks, plus the simulation substrate
// that regenerates the paper's evaluation.
//
// The implementation lives under internal/ (petri, flowc, compile, link,
// sched, codegen, sim, core, corpus); command-line tools under cmd/;
// runnable examples under examples/. The root holds the benchmark
// harness for the paper's tables and figures (bench_test.go) and the
// Makefile driving CI (build, vet, race tests, one-shot benchmarks, the
// cmd/benchdiff regression gate against bench_baseline.json, and a fuzz
// smoke pass replaying the corpora checked in under testdata/fuzz). The
// same pipeline runs on every push/PR via .github/workflows/ci.yml.
//
// # Marking identity
//
// Every schedule-search engine keys its visited set by marking. Marking
// identity is hash-consed: petri.MarkingStore interns each distinct
// token vector once behind a dense uint32 petri.MarkID (an additive
// hash Σ m[p]·w(p) over the vector with fixed pseudo-random place
// weights, and an open-addressing table probed from a finalizer of
// that hash), and the engines fire transitions into a reused scratch
// buffer (petri.FiringTable.Fire), so the inner loop of a search
// performs zero allocations per fired transition — revisiting a known
// marking costs a hash and a table probe. Because the hash is additive,
// petri.Drive and the dist workers never rehash a successor: its hash
// is the parent's plus the transition's constant increment, and its
// cap check looks only at the places the transition adds tokens to
// (petri.FiringTable). A MarkID
// is meaningful only relative to the store that issued it and is valid
// for the store's lifetime; markings returned by MarkingStore.At are
// read-only views that survive later interning. Replacing the previous
// string-keyed maps cut cold PFC synthesis from ~249ms/1.04M allocs to
// ~49ms/4k allocs per run on the reference container (5.1x / 253x) and
// is what allows the corpus generator to double its per-edge burst cap.
//
// # Token width
//
// A token count is four bytes: petri.Marking is a []int32, so a store
// page, a thawed vector and the dist vector cache hold
// petri.TokenBytes per place, and petri.MaxTokens (2,147,483,647) is
// the largest count a place holds. Every way a count enters is
// range-checked: Net.Validate (initial markings, bounds and arc weights,
// after AddArc has merged repeated arcs; compile, link, the text
// format, PNML and DecodeNet all call it), the FlowC checker (item
// counts and array sizes, so the server answers 422), the netlist's
// bound= and rate=, PNML's initialMarking and inscription (a
// *pnml.ParseError with line and column) and petri.DecodeMarking. No
// search stores a wrapped count. The cap check compares counts as
// uint32, so a capped place vetoes a successor whose count wrapped,
// and a place no cap bounds (Net.Explore without MaxTokensPerPlace,
// the EP tree engines) ends the search with an error wrapping
// petri.ErrTokenOverflow that names the place. Hashes, MarkIDs, wire
// bytes, frozen segments and PNML fingerprints did not change with the
// width: each encodes a count by value.
//
// # Incremental enablement
//
// Exploration loops used to re-test the entire equal-conflict
// partition at every visited marking. The search's petri.FiringTable
// replaces that with incremental maintenance: for each transition it
// lists the few ECSs whose presets intersect the places the firing
// actually changes, and per-state enabled sets are bitsets derived
// from the parent state's. The table is built once per search from
// each transition's token effect (petri.Transition.AppendDeltas, the
// one definition of what a firing does) and passed down to whoever
// fires: the exploration driver (petri.Drive, behind petri.Explore and
// the scheduler's marking-graph engine), a dist coordinator, the
// frozen store tier and the EP/EP_ECS tree engines. Each dist worker
// builds its own from the net it decodes. They all expand states by
// iterating their enabled-set bits instead of scanning the partition.
//
// # Search tables
//
// Beside the store, a search keeps flat tables that gain one entry per
// interned state or per recorded edge: the driver's enabled-bit arena,
// a ReachResult's Edges headers and Clipped flags, the graph engine's
// state table and adjacency arenas, and a dist worker's gids and bits.
// All of them grow through petri.Push and petri.Extend, by one rule:
// capacity at least doubles when it runs out, so a table allocates
// about twice its final capacity in all, where append's ~1.25x growth
// of large slices costs about five times. The graph engine's tables
// hold partition and state indices, never pointers, so the garbage
// collector never scans their contents and copying them on growth
// needs no write barriers. A table's slice header is another matter:
// it lives in a heap object (the engine, the driver, the result), and
// storing a data pointer there pays a write barrier whenever the
// collector is marking. Push and Extend store only the new length
// while capacity lasts, so the header's pointer, and its barrier, is
// written once per reallocation instead of once per successor. The
// doubling rule and the pointer-free tables cut a cold PFC synthesis
// from 25.9 to 17.7 MB allocated and its CPU time by over a fifth;
// `make bytes-gates` bounds what the PFC search and serial
// ExploreLarge allocate at 3.3x and 1.85x their stores' hot bytes (with
// four-byte tokens the stores are half as large, so these ratios allow
// fewer bytes than the 2.5x and 1.6x of eight-byte ones).
//
// # Concurrency and caching
//
// In-process concurrency has one level: the per-source schedule
// searches of one system run on a bounded worker pool
// (core.Options.Workers) with deterministic result ordering and
// first-error cancellation via context (core.SynthesizeContext).
// Each search itself is serial:
// petri.Drive, the one level-synchronous exploration driver, expands a
// state and merges each successor at once — fire into a scratch
// buffer, hash once, probe the search's own petri.MarkingStore once,
// and intern a new marking at the slot that probe ended on, under the
// next dense MarkID — with no goroutines and
// no candidate buffers, so every explored marking's tokens are stored
// once. There is no per-level goroutine fan-out: one lost to the serial
// search in every measurement (CPU, wall time and bytes, at GOMAXPROCS
// 1 and 2). Results are memoized in a content-addressed cache keyed by
// FlowC source, netlist and options (worker counts excluded — they
// cannot change the result), so repeated synthesis of an unchanged app
// costs a hash and a map lookup (core.Stats reports hit rates;
// core.ResetCache empties it).
//
// # One execution setting
//
// Synthesis runs one way: every exploration, the schedule search's
// included, runs inline through petri.Drive on its caller's goroutine.
// The one setting is whether closed levels freeze to disk: the Freeze
// field of sched.Options, petri.ExploreOptions and pnml.AnalyzeOptions,
// set by the tools' -freeze-levels and the server's
// Config.FreezeLevels. The result is the same either way, so it is not
// part of the synthesis cache key. Every new state enters the store
// through one call, petri.MarkingStore.InternChild, which names its
// parent and transition, and every level commit is one FreezeThrough on
// that store.
//
// # Distributed exploration
//
// internal/dist shards one reachability exploration across worker OS
// processes: petri.Net.ExploreDist, the only caller that hands
// petri.Drive a petri.FrontierRunner, runs on a dist.Pool of workers
// spawned by re-executing the current binary (dist.SpawnLocal +
// dist.MaybeWorker). The coordinator's merge is Drive's sequential
// merge, so the ReachResult is byte-identical for every process count,
// frozen or not. Nothing in the synthesis flow uses it: measured, the
// coordinator alone spent more CPU than a whole inline search, and its
// process held the whole store as an inline one does. It remains as the
// library of the repository benchmark's dist workload (qssbench); its
// package doc describes the wire protocol, the trimmed replicas and
// the failover (a dead worker is respawned or its shards
// redistributed; when recovery runs out, ExploreDist returns the error
// and nothing reruns inline). `make dist-matrix` pins ReachResults
// across worker counts and frozen stores, `make dist-memory` gates
// per-worker store bytes at <= 0.75x the single-worker replica for 2
// workers, and `make dist-chaos` drives kill/sever/delay faults and
// real SIGKILLed workers.
//
// # Frozen store tier (beyond-RAM exploration)
//
// Level-synchronous exploration gives marking lifetimes a shape the
// store can exploit: once a BFS level has been merged, its states can
// be rediscovered (a dedup probe) but never re-expanded, so their
// token vectors are cold from that moment on. With Freeze
// (-freeze-levels on the cmd tools) the store freezes each
// closed level out of the hot arena into an append-only on-disk
// segment of delta records — parent MarkID + fired transition
// reconstructs a vector from its parent, the same insight the dist
// wire format exploits; roots and states whose
// parent cannot serve as a delta base are stored verbatim. The tier
// is the store's own business: it records each state's provenance
// when the state is interned (InternChild), keeps it only until the
// state freezes, and freezes through a callback-free
// FreezeThrough(end). The
// segment lives in an unlinked temp file and is read back by mmap
// (with a pread fallback where mmap is unavailable); only the hashes,
// the open-addressing probe table and one segment offset per state
// stay resident, so the hot store no longer scales with the marking
// width. MarkingStore.At is unchanged for callers: an id below the
// frozen boundary thaws transparently — the parent chain is walked
// back to a hot, cached or verbatim base and the deltas are replayed
// forward, with a bounded FIFO cache memoizing thawed vectors and
// every 16th chain ancestor so probe-heavy workloads do not replay
// long chains repeatedly. Hash-alias handling is unaffected: the
// vector-exact fallback reads frozen vectors through the same thawing
// path. MarkingStore.Mem reports the split (StoreMem.HotBytes /
// FrozenBytes — exact, machine-independent counts; the single source
// for sched.SearchStats.StoreHotBytes/StoreFrozenBytes,
// dist.WorkerMem and the server's qss_store_hot_bytes /
// qss_store_frozen_bytes gauges). petri.Drive freezes at each level
// commit inline, and a dist coordinator at its own level commits (its
// workers freeze their replicas when it does). Freezing never changes
// results: `make store-frozen` (its own CI step) pins byte-identical
// reachability on the 161k-state ExploreLarge net with hot residency
// gated at <= 0.35x the all-hot store by exact byte accounting, core's
// determinism matrix and 50-app corpus sweep synthesize frozen, and a
// nightly sweep freezes the heavy corpus end to end. Failures are handled in
// one place, the store: without a temp file it never freezes, and a
// segment write failure stops it freezing for good while the levels
// frozen before stay readable — identical results, larger residency.
// Tree engines (EP/EP_ECS) are not
// level-synchronous and ignore the option.
//
// # Resident service
//
// The warm path of the content-addressed cache (~10µs versus ~46ms
// cold on the PFC example) only pays off if the process holding it
// survives the request, so cmd/qss-server keeps one warm:
// internal/server multiplexes HTTP synthesis requests onto a single
// resident process where all requests share the one cache. Admission
// is bounded — a fixed number of
// concurrent synthesis slots plus a fixed-length waiting queue, with
// overflow answered 429 immediately — and every request runs under its
// own budgets (state-count cap and deadline, clamped to server
// configuration). POST /v1/synthesize returns the generated C
// byte-for-byte as the CLI would write it (golden-checked by the
// server smoke test, `make server-smoke`); GET /metrics exposes the
// cache, admission, latency and store-residency series in Prometheus
// text format; SIGTERM begins a graceful drain — readiness (GET
// /readyz) flips off, new work is refused, in-flight requests finish
// under a deadline. docs/SERVER.md is the operations guide.
//
// # Scenario corpus
//
// Beyond the four hand-written applications of internal/apps, the
// internal/corpus package deterministically generates randomized-but-
// valid FlowC process networks with auto-derived netlists, and
// cmd/qssbatch synthesizes whole corpora concurrently, reporting
// aggregate throughput. Property tests validate the paper's Definition
// 4.1 invariants and the guaranteed channel bounds over every generated
// app; fuzz targets (internal/flowc.FuzzParse, internal/petri.
// FuzzExplore) harden the front end and the reachability utilities.
package repro
