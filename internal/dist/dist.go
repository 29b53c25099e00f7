// Package dist shards one level-synchronous reachability exploration
// (petri.Net.ExploreDist) across OS processes: a deterministic
// coordinator in the calling process drives a pool of worker
// processes, each owning a contiguous range of marking-hash shards (the
// top bits of the additive marking hash petri.HashMarking,
// petri.ShardOfHash), over a length-prefixed binary protocol on unix
// sockets.
//
// Synthesis never runs on it: the schedule search, the command-line
// tools and the server explore inline, because on every measurement the
// coordinator's merge alone cost more CPU than a whole inline search,
// and its process held the whole store as an inline one does. The
// package remains as the library of the repository benchmark's dist
// workload (qssbench) and goes when that workload is retired.
//
// # Determinism contract
//
// The coordinator performs the exact sequential first-discovery merge
// of petri.Drive's inline mode: frontier states are walked in dense
// MarkID order and each state's candidate edges in the inline emit
// order, so dense MarkID assignment — and with it the ReachResult — is
// byte-identical for every worker-process count and the in-process
// search. Workers only ever
// move the expansion work (firing, hashing, known-state resolution)
// out of the coordinator; they never influence ordering.
//
// # Protocol
//
// Coordinator and workers speak one wire protocol (protoVersion); a
// worker built from another tree is refused at hello with an error
// naming both versions. Per session (one exploration), the coordinator
// sends each worker one init, the only message that seeds a replica:
// the net, the petri.ExpandSpec (fireable-ECS mask + place caps), the
// bounds of the level the worker starts in, and just the worker's
// owned (global id, vector) pairs from that level on — the roots of a
// fresh session, or the replayed level and its successors after a
// failover. Each worker builds its own petri.FiringTable from the net
// it decodes; the coordinator fires through the one petri.Drive hands
// to RunFrontier.
//
// The session is a pipelined stream in both directions, with no
// per-level barrier. Workers push their candidate bytes as they
// expand, cut into chunks at state-group boundaries (msgChunk, ~16KiB
// target); the coordinator acknowledges each chunk it consumes
// (msgAck) and a worker keeps at most chunkWindow chunks
// unacknowledged, so a slow merge applies backpressure instead of
// buffering without bound. The coordinator merges worker W's slice of
// a level the moment W's bytes arrive — per-connection reader
// goroutines feed bounded channels — while other workers' slices are
// still in flight. Toward the workers, newly admitted states stream
// mid-merge in small record batches (msgRecords) and an explicit level
// commit (msgLevel, carrying the level's [start,end) MarkID range)
// tells workers the records of that level are complete; a worker
// therefore starts expanding its slice of level L+1 while the
// coordinator is still merging the tail of L. Because a worker may
// expand a state before the coordinator has numbered its successors, a
// candNew candidate carries the successor's 64-bit marking hash: the
// coordinator resolves already-interned states by a hash-only probe
// (exact until the store observes a hash alias, then it falls back to
// vector-exact lookups) and fires a transition only for each state it
// actually materializes. This is hash compaction, with its caveat: a
// successor that is NOT yet in the store is taken for a known one if
// its hash equals a stored marking's, a chance of about len·2⁻⁶⁴ per
// probe for a store of len markings. The estimate rests on
// HashMarking's fixed pseudo-random odd place weights, under which two
// distinct markings of small token counts share a hash with
// probability about 2⁻⁶⁴. Workers derive each successor's hash from
// its parent's (petri.FiringTable.Hash), and the coordinator still checks
// every new candidate's shipped hash against its own parent's stored
// hash plus the transition's increment, and vetoes it by the full cap
// scan. A worker classifies against its last
// committed level ("pin"): successors at or past the pin are reported
// new even if locally known, which keeps the candidate stream a pure
// function of ownership and committed levels — byte-identical
// regardless of message timing.
//
// Replicas are trimmed: each worker holds vectors, hashes and enabled
// bitsets only for its owned shards — per-worker memory is ~1/N of the
// state space, which is what takes explorations beyond one machine's
// RAM. The coordinator sends each worker just the petri.VecDelta
// records whose child it owns; a record whose parent belongs to
// another worker carries the parent's token vector (the worker cannot
// re-fire it locally), deduplicated through a bounded LRU the
// coordinator and worker run in lockstep, so a hot boundary parent
// ships once per residency rather than once per child. Successors
// routing to foreign shards are reported as new and resolved by the
// coordinator's merge against the authoritative store.
//
// Orthogonally, the frozen tier follows the coordinator. When the
// caller's petri.ExploreOptions set Freeze, petri.Drive hands the
// session a store with a frozen tier. The coordinator interns every new state
// with its parent and transition (petri.MarkingStore.InternChild) and
// freezes the store at its own level commits (FreezeThrough), and
// every session init (resumes included) carries the store's
// FreezeEnabled flag, so each replica does the same with its local
// ids: once msgLevel commits a level, states below it can never again
// be record parents or expansion sources, so only hashes, the probe
// table and segment offsets stay resident — the remaining per-state
// hot cost no longer scales with the marking width. Dedup probes
// against old states thaw vectors on demand. Workers freeze exactly
// when their coordinator does. Results stay byte-identical either
// way.
//
// # Process management
//
// SpawnLocal re-executes the current binary as worker processes; any
// binary (or test binary) that may act as a coordinator must call
// MaybeWorker first thing in main (or TestMain), which hijacks the
// process when the QSS_DIST_WORKER environment variable is set. Set
// QSS_DIST_LOGDIR to make coordinator and workers write per-process log
// files (CI uploads them when the determinism matrix fails).
//
// # Failure model
//
// A session survives the loss of workers. Liveness is monitored from
// both directions: every session runs per-message write deadlines
// (sendTimeout) plus a generous worker-side read deadline, and while
// the coordinator's merge awaits a frame it pings the awaited worker
// every heartbeatInterval — a worker from which no frame at all
// arrives within heartbeatTimeout is declared dead even if its
// connection looks healthy. Any frame (a pong
// included) counts as life; a worker grinding through a huge level is
// never misdeclared as long as it keeps draining pings.
//
// On a death the coordinator pauses at the last committed level,
// quiesces the survivors, and rebuilds the pool: a SpawnLocal pool
// re-execs a replacement process (bounded retries, exponential backoff
// with jitter), and the re-init seeds every trimmed replica with its
// owned slice of the store from the replayed level on; a pool that
// cannot respawn (a replacement fails to start, or a pool without a
// spawner, like the tests' in-memory pipe pools) redistributes the dead
// worker's shards across the survivors instead. The session then
// replays the interrupted level against the authoritative store —
// replayed candidates are discarded by count, so the ReachResult stays
// byte-identical to a fault-free run. Recovery is bounded
// (maxSessionRestarts rounds per session); when it is exhausted, or no
// worker survives, the session fails with SessionStats.Degraded set,
// ExploreDist returns its error, and the pool is poisoned: every later
// session fails fast with the same cause. Nothing reruns the
// exploration inline. SessionStats (Restarts, Redistributed, Degraded)
// report what happened.
package dist

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"time"
)

// Environment variables wiring spawned worker processes to their
// coordinator (see MaybeWorker) and the optional log directory.
const (
	EnvWorker   = "QSS_DIST_WORKER"
	EnvEndpoint = "QSS_DIST_ENDPOINT"
	EnvLogDir   = "QSS_DIST_LOGDIR"
)

// parseEndpoint splits an endpoint of the form "unix:/path/to.sock",
// "tcp:host:port" or a bare filesystem path (treated as a unix socket)
// into a (network, address) pair for package net.
func parseEndpoint(ep string) (network, addr string, err error) {
	switch {
	case strings.HasPrefix(ep, "unix:"):
		return "unix", ep[len("unix:"):], nil
	case strings.HasPrefix(ep, "tcp:"):
		return "tcp", ep[len("tcp:"):], nil
	case ep == "":
		return "", "", fmt.Errorf("dist: empty endpoint")
	default:
		return "unix", ep, nil
	}
}

// dialRetry dials the endpoint with exponential backoff and jitter: a
// spawned worker may race the coordinator's listener setup by
// milliseconds, and a whole pool dials at once, so retries start short
// and grow without stampeding the coordinator's accept loop.
func dialRetry(ep string, budget time.Duration) (net.Conn, error) {
	network, addr, err := parseEndpoint(ep)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(budget)
	backoff := 25 * time.Millisecond
	for {
		c, err := net.Dial(network, addr)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dist: dial %s: %w", ep, err)
		}
		time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff))))
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// MaybeWorker turns the current process into a dist worker when the
// QSS_DIST_WORKER environment variable is set, never returning in that
// case: it dials the coordinator at QSS_DIST_ENDPOINT, serves
// exploration sessions until the connection closes, and exits. Every
// binary that can act as a coordinator via SpawnLocal — the cmd tools,
// and test binaries through TestMain — must call it before doing
// anything else, so the re-executed children become workers instead of
// re-running the caller's main logic.
func MaybeWorker() {
	if os.Getenv(EnvWorker) == "" {
		return
	}
	logw := newLogWriter("worker")
	ep := os.Getenv(EnvEndpoint)
	conn, err := dialRetry(ep, 10*time.Second)
	if err != nil {
		logw.printf("%v", err)
		os.Exit(1)
	}
	if err := ServeConn(conn, logw); err != nil {
		logw.printf("serve: %v", err)
		conn.Close()
		os.Exit(1)
	}
	conn.Close()
	os.Exit(0)
}
