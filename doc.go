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
// All of them grow by one rule, petri.Grow: capacity at least doubles
// when it runs out, so a table allocates about twice its final
// capacity in all, where append's ~1.25x growth of large slices costs
// about five times. The graph engine's tables hold partition and state
// indices, never pointers, so the garbage collector never scans them
// and copying them needs no write barriers. Together the two cut a
// cold PFC synthesis from 25.9 to 17.7 MB allocated and its CPU time
// by over a fifth; `make bytes-gates` bounds what the PFC search and
// serial ExploreLarge allocate at 3.3x and 1.85x their stores' hot
// bytes (with four-byte tokens the stores are half as large, so these
// ratios allow fewer bytes than the 2.5x and 1.6x of eight-byte ones).
//
// # Concurrency and caching
//
// In-process concurrency has one level: the per-source schedule
// searches of one system run on a bounded worker pool
// (core.Options.Workers) with deterministic result ordering and
// first-error cancellation via context (core.SynthesizeContext,
// core.SynthesizeSystemContext). Each search itself is serial:
// petri.Drive, the one level-synchronous exploration driver, expands a
// state and merges each successor at once — fire into a scratch
// buffer, hash once, probe the search's own petri.MarkingStore, intern
// a new marking under the next dense MarkID — with no goroutines and
// no candidate buffers, so every explored marking's tokens are stored
// once. There is no per-level goroutine fan-out: one lost to the serial
// search in every measurement (CPU, wall time and bytes, at GOMAXPROCS
// 1 and 2). Results are memoized in a content-addressed cache keyed by
// FlowC source, netlist and options (worker counts excluded — they
// cannot change the result), so repeated synthesis of an unchanged app
// costs a hash and a map lookup (core.Stats reports hit rates;
// core.ResetCache empties it).
//
// # Execution strategy
//
// Where the frontier expands (inline or on a dist worker pool),
// whether a failed pool reruns inline, and whether closed levels freeze
// to disk are one value, petri.Strategy, decided once by the caller.
// sched.Options, petri.ExploreOptions and pnml.AnalyzeOptions carry it
// as their Strategy field, and every layer hands it unchanged to
// petri.Drive; the determinism contract makes the result the same
// under every strategy, so it is not part of the synthesis cache key.
// The command-line tools build it from -dist-workers, -dist-endpoint
// and -freeze-levels through internal/strategyflag; the server builds
// each request's from its Config.Pool and Config.FreezeLevels. Whoever
// expands, every new state enters the store through one call,
// petri.MarkingStore.InternChild, which names its parent and
// transition, and every level commit is one FreezeThrough on that
// store: inline, Drive makes both calls; on a pool, the dist
// coordinator makes them in its own merge.
//
// # Distributed exploration
//
// The other execution strategy takes the frontier across process
// boundaries (internal/dist): a deterministic coordinator in the
// synthesizing process drives worker OS processes — spawned locally by
// re-executing the current binary (dist.SpawnLocal + dist.MaybeWorker)
// or started anywhere as cmd/qssd and dialed in over unix sockets or
// TCP (dist.Listen) — through a
// length-prefixed binary protocol. Workers own contiguous ranges of
// marking-hash shards (petri.ShardOfHash/ShardOwner: the top bits of
// the marking hash, while the store's probe table takes its slots from
// a finalizer of the whole hash; every process routes a marking the
// same way).
// Replicas are TRIMMED: a worker holds vectors, hashes and
// enabled bitsets only for its owned shards — per-worker memory scales
// ~1/N with the pool, which is what takes state spaces beyond one
// machine's RAM — and the coordinator sends it just the per-level
// petri.VecDelta records whose child it owns, attaching the parent's
// token vector when the parent lives in another worker's shards
// (deduplicated by a bounded LRU both sides run in lockstep, so a hot
// boundary parent ships once per residency). Successors routing to
// foreign shards are reported as new and resolved by the coordinator.
// Workers answer with candidate streams classifying each successor as
// vetoed, known (dense global MarkID) or new — a new candidate also
// carries the successor's 64-bit marking hash, which lets the
// coordinator resolve duplicates by a hash-only store probe instead of
// re-firing the transition itself (it fires exactly once per state it
// actually materializes). Coordinator and workers speak one wire
// protocol; a worker built from another tree is refused at hello. The
// session is pipelined rather than barriered: workers push their
// candidate streams in bounded ack'd chunks as they expand, the
// coordinator merges each worker's slice of a level while later
// slices are still in flight, and intra-level record batches plus an
// explicit level-commit message let workers start expanding level L+1
// while the coordinator is still merging the tail of L. None of this
// moves the determinism contract: the coordinator's merge
// is petri.Drive's sequential merge verbatim (one shared
// petri.MergeHooks definition), walking states in MarkID order and
// candidates in the serial emit order, so dense MarkID assignment —
// and therefore ReachResult ordering, schedules and generated C — is
// byte-identical for every process count and the in-process search,
// no matter how late any worker's stream arrives. Exploration semantics travel as a
// self-contained petri.ExpandSpec (fireable-ECS mask + place caps) and
// the net itself crosses the wire through petri.AppendNet/DecodeNet,
// which round-trips exactly the structure firing, ECS partitioning and
// the firing table depend on. The matrix test
// (internal/dist, `make dist-matrix`, its own CI job) pins generated C
// across {serial, frozen store, worker processes 1/2/4} plus a
// 50-app corpus sweep with real spawned processes under -race;
// `make dist-memory` gates per-worker store bytes at <= 0.75x the
// single-worker replica for 2 workers (exact live counts,
// machine-independent); BenchmarkExploreDist documents the session
// overhead on a small net, and BenchmarkExploreDistPipelined the
// streaming session on the 161k-state net (coordinator fire counts,
// chunk counts, received bytes per level and the ~1/N per-worker
// memory curve).
//
// # Frozen store tier (beyond-RAM exploration)
//
// Level-synchronous exploration gives marking lifetimes a shape the
// store can exploit: once a BFS level has been merged, its states can
// be rediscovered (a dedup probe) but never re-expanded, so their
// token vectors are cold from that moment on. With petri.Strategy's
// Freeze (-freeze-levels on the cmd tools) the store freezes each
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
// commit inline, and a dist coordinator at its own level commits;
// dist workers, told by each session
// init whether the coordinator's store freezes, freeze their replicas
// below each committed level, and the whole thing composes with
// trimmed replicas — per-worker hot memory scales ~1/N AND sheds its
// vectors. Freezing never changes results: `make store-frozen` (its
// own CI step) pins byte-identical reachability on the 161k-state
// ExploreLarge net with hot residency gated at <= 0.35x the all-hot
// store by exact byte accounting, the determinism matrix and a 50-app
// corpus sweep run frozen configurations, and a nightly beyond-RAM
// sweep freezes the heavy corpus end to end. Failures are handled in
// one place, the store: without a temp file it never freezes, and a
// segment write failure stops it freezing for good while the levels
// frozen before stay readable — identical results, larger residency.
// Tree engines (EP/EP_ECS) are not
// level-synchronous and ignore the option.
//
// # Failure model
//
// Determinism is also what makes worker failure survivable: any
// correct re-execution produces the same bytes, so the coordinator may
// freely restart, replace or abandon workers mid-session. Liveness is
// heartbeat-probed (msgPing/msgPong plus read/write deadlines), so a
// silently dead or wedged worker is unmasked within a bounded interval
// even while its TCP connection looks healthy. On a death the coordinator pauses at the last
// committed BFS level, quiesces the survivors, respawns a replacement
// process when it can (SpawnLocal pools; bounded retries with
// exponential backoff and jitter) or redistributes the dead worker's
// shards across the survivors, re-inits the pool — each init seeds a
// trimmed replica with the worker's owned states from the interrupted
// level on, the same message that seeds a fresh session with its
// roots — then replays the
// interrupted level discarding already-merged candidates by count.
// ReachResult, schedules and generated C stay byte-identical to a
// fault-free run. When recovery is exhausted the failure degrades
// rather than propagates: a petri.Strategy with Fallback set reruns
// the exploration in-process (the cmd tools and the server set it), and
// dist.SessionStats/Pool.RecoveryStats report restarts, redistributed
// shards and degradation — surfaced by the server as
// qss_dist_worker_restarts_total and qss_dist_pool_degraded. The
// fault-injection matrix (`make dist-chaos`, its own CI job, a
// randomized-seed nightly sweep) drives kill/sever/delay faults
// through a seeded chaos conn shim and real SIGKILLed workers,
// asserting byte-identical output against serial for every fault
// point.
//
// # Resident service
//
// The warm path of the content-addressed cache (~10µs versus ~46ms
// cold on the PFC example) only pays off if the process holding it
// survives the request, so cmd/qss-server keeps one warm:
// internal/server multiplexes HTTP synthesis requests onto a single
// resident process where all requests share the one cache and,
// optionally, one persistent dist.Pool of worker processes reused
// session after session. Admission is bounded — a fixed number of
// concurrent synthesis slots plus a fixed-length waiting queue, with
// overflow answered 429 immediately — and every request runs under its
// own budgets (state-count cap and deadline, clamped to server
// configuration). POST /v1/synthesize returns the generated C
// byte-for-byte as the CLI would write it (golden-checked by the
// server smoke test, `make server-smoke`); GET /metrics exposes the
// cache, admission, latency and per-worker dist memory series in
// Prometheus text format; SIGTERM begins a graceful drain — readiness
// (GET /readyz) flips off, new work is refused, in-flight requests
// finish under a deadline, the pool closes once. docs/SERVER.md is the
// operations guide.
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
