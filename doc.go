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
// for the store's lifetime; a marking returned by MarkingStore.At is
// read-only and survives later interning (a view into a four-byte
// page, or a decoded copy), and MarkingStore.Load decodes into the
// caller's buffer for readers that visit every state. Replacing the previous
// string-keyed maps cut cold PFC synthesis from ~249ms/1.04M allocs to
// ~49ms/4k allocs per run on the reference container (5.1x / 253x) and
// is what allows the corpus generator to double its per-edge burst cap.
//
// # Token width
//
// A token count in a petri.Marking is four bytes (petri.TokenBytes): it
// is a []int32, as is the dist vector cache, and
// petri.MaxTokens (2,147,483,647) is the largest count a place holds.
// A store packs counts into rows narrower than that until one does not
// fit. The store of every inline exploration (petri.Drive without a
// runner: every schedule search's graph engine, Net.Explore,
// pnml.Analyze) lays its rows out once per search from the caps of its
// ExpandSpec and the initial marking: place p's count is a field of
// min(8, bits.Len(max(limit, initial))) bits, no field straddles a
// byte, and a place capped at 0 with no initial token takes no bits.
// A capped place's limit is its cap. A place without one takes its
// limit from the net's structure: the minimal P-semiflows y of the
// incidence matrix, restricted to the transitions the spec lets fire,
// keep y·M = y·M0 at every reachable marking, so p holds at most
// ⌊y·M0 / y(p)⌋ tokens. internal/linalg computes them with the same
// Farkas procedure (Martínez and Silva) that gives the scheduling
// heuristic its T-invariants, under a fixed work budget; past it, or on
// a place no semiflow covers, the limit is MaxTokens and the field a
// whole byte. Every place of the analyze workload's ring net and of the
// vendored PNML nets is covered: a ring state is 8 bytes instead of 60,
// and ExploreLarge's store holds 3.6 MB hot instead of 12.0 MB. The
// merge fires, vetoes, probes and interns successors on those rows,
// checking each rising count against its cap first and then against
// its field. The first count a field cannot hold widens the store,
// once and in place, to four-byte pages; a successor a cap vetoes
// widens nothing. The counts a schedule search keeps are tiny (every
// cap of the PFC search is 0 or 1), so a PFC state's row is 5 bytes,
// where one byte per place took 41: a cold PFC synthesis allocates
// 3.94 MB instead of 4.85 MB. The stores of a dist runner's
// coordinator and workers and of the EP tree engines, which hold At
// views per state, stay four bytes wide. Every way a count enters is
// range-checked: Net.Validate (initial markings, bounds and arc
// weights, after AddArc has merged repeated arcs; compile, link, the
// text format, PNML and DecodeNet all call it), the FlowC checker (item
// counts and array sizes, so the server answers 422), the netlist's
// bound= and rate=, PNML's initialMarking and inscription (a
// *pnml.ParseError with line and column) and petri.DecodeMarking. No
// search stores a wrapped count. The cap check compares counts as
// uint32, so a capped place vetoes a successor whose count wrapped,
// and a place no cap bounds (Net.Explore without MaxTokensPerPlace,
// the EP tree engines) ends the search with an error wrapping
// petri.ErrTokenOverflow that names the place. Hashes, MarkIDs, edges,
// schedules, wire bytes and PNML fingerprints do not change with a
// store's width or row layout: each sees a count by value, and a
// successor's hash is still its parent's plus Δ(t).
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
// the scheduler's marking-graph engine), a dist coordinator and the
// EP/EP_ECS tree engines. Each dist worker
// builds its own from the net it decodes. They all expand states by
// iterating their enabled-set bits instead of scanning the partition.
//
// # Search tables
//
// Beside the store, a search keeps flat tables that gain one entry per
// interned state or per recorded edge: a reachability exploration's row
// records, the graph engine's state table and adjacency arena, and a
// dist worker's gids and bits. All of them grow through petri.Push and
// petri.Extend, by one rule: capacity at least doubles when it runs
// out, so a table allocates about twice its final capacity in all,
// where append's ~1.25x growth of large slices costs about five times.
// Three tables are kept smaller than one entry per state or edge. The
// driver's enabled-ECS arena holds only a window of states, those
// interned but not yet expanded: it drops the expanded prefix once that
// is half the window, so it tracks the BFS frontier instead of the
// state count. A reachability exploration keeps 4 bytes per state while
// it runs, each state's edge count and clip flag; it lays out the
// ReachResult's Edges headers and Clipped flags once, at exactly one
// entry per state, when the exploration ends, instead of regrowing
// 24-byte headers through it. And the graph engine's adjacency holds
// only what its fixpoint can use: a group (one allowed ECS of a state,
// one successor per member) with a successor beyond the place caps can
// never be chosen, so the merge drops it, and a group stores no ECS,
// only its successors, the last one flagged. The few states a schedule
// keeps recover their groups' ECSs by expanding their marking once more
// under the search's ExpandSpec; on PFC that drops the adjacency from
// 261,376 entries to 103,836. The X set of the fixpoint is a table of
// its own, made once the state count is known, so a state costs 8
// bytes in the state table. The graph engine's tables hold partition
// and state indices, never pointers, so the garbage collector never
// scans their contents and copying them on growth needs no write
// barriers. A table's slice header is another matter: it lives in a
// heap object (the engine, the driver, the explorer), and storing a
// data pointer there pays a write barrier whenever the collector is
// marking. Push and Extend store only the new length while capacity
// lasts, so the header's pointer, and its barrier, is written once per
// reallocation instead of once per successor. The doubling rule and the
// pointer-free tables cut a cold PFC synthesis from 25.9 to 17.7 MB
// allocated and its CPU time by over a fifth; the frontier window then
// cut it from 6.69 to 6.23 MB, and the adjacency that keeps only usable
// successors from 6.23 to 4.85 MB, and cap-width rows (see Token width)
// from 4.85 to 3.94 MB, while the two smaller reachability tables cut
// serial ExploreLarge from 39.4 to 28.7 MB, and semiflow-bounded rows
// from 28.7 to 19.7 MB. `make bytes-gates` bounds what serial
// ExploreLarge allocates at 132 bytes per state and what the PFC
// search allocates at 172 bytes per state it interns: packed rows made
// each store smaller than the tables beside it, so a multiple of the
// store's hot bytes no longer bounds the tables that grow.
//
// # Concurrency and caching
//
// In-process concurrency has one level: the per-source schedule
// searches of one system run on a bounded worker pool
// (core.Options.Workers) with deterministic result ordering and
// first-error cancellation via context (core.SynthesizeContext).
// The searches share the system's petri.Net, which is plain data: once
// built, any number of goroutines may read it.
// Each search itself is serial:
// petri.Drive, the one level-synchronous exploration driver, expands a
// state and merges each successor at once — fire into a scratch
// buffer, hash once, probe the search's own petri.MarkingStore once,
// and intern a new marking at the slot that probe ended on, under the
// next dense MarkID — with no goroutines and
// no candidate buffers, so every explored marking's tokens are stored
// once. There is no per-level goroutine fan-out: one lost to the serial
// search in every measurement (CPU, wall time and bytes, at GOMAXPROCS
// 1 and 2). Core keeps no state between calls: every
// core.SynthesizeContext runs the whole flow and returns a Result of
// its own. Caching is the resident server's: internal/server keeps, per
// Server, up to 1,024 replies (system, task manifest, C code, channel
// bounds, about 4 KB each), keyed by the FlowC text, the netlist and
// the clamped state budget, so a repeat request costs a hash and a map
// lookup.
//
// # No execution setting
//
// Synthesis runs one way: every exploration, the schedule search's
// included, runs inline through petri.Drive on its caller's goroutine,
// and its store keeps every explored marking in memory. There is no
// execution setting: sched.Options, petri.ExploreOptions and
// pnml.AnalyzeOptions hold only what changes the result (budgets,
// caps, heuristics, the engine; sched.Options.ExploreWorkers is
// ignored), and no tool flag or server field picks how a search runs.
// An on-disk tier for closed BFS levels was tried and deleted: once
// the store held one byte per count it raised peak RSS as well as time
// on every search measured.
//
// # Distributed exploration
//
// internal/dist shards one reachability exploration across worker OS
// processes: petri.Net.ExploreDist, the only caller that hands
// petri.Drive a petri.FrontierRunner, runs on a dist.Pool of workers
// spawned by re-executing the current binary (dist.SpawnLocal +
// dist.MaybeWorker). The coordinator's merge is Drive's sequential
// merge, so the ReachResult is byte-identical for every process count.
// Nothing in the synthesis flow uses it: measured, the
// coordinator alone spent more CPU than a whole inline search, and its
// process held the whole store as an inline one does. It remains as the
// library of the repository benchmark's dist workload (qssbench); its
// package doc describes the wire protocol, the trimmed replicas and
// the failover (a dead worker is respawned or its shards
// redistributed; when recovery runs out, ExploreDist returns the error
// and nothing reruns inline). `make dist-matrix` pins ReachResults
// across worker counts, `make dist-memory` gates
// per-worker store bytes at <= 0.75x the single-worker replica for 2
// workers, and `make dist-chaos` drives kill/sever/delay faults and
// real SIGKILLed workers.
//
// # Resident service
//
// The warm path of the server's reply cache (2–5µs of server-side time
// versus 23–28ms cold on the PFC example, on a 2-vCPU Xeon VM) only
// pays off if the process holding it survives the request, so
// cmd/qss-server keeps one warm: internal/server multiplexes HTTP
// synthesis requests onto a single resident process where all requests
// share the one cache. Admission is bounded — a fixed number of
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
