package dist

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/petri"
)

// Pool is a coordinator's set of connected worker processes. It
// implements petri.FrontierRunner: each RunFrontier call is one
// exploration session sharded across the pool. A Pool serializes
// sessions internally, so it may be shared by sequential (or
// mutex-ordered) callers; Close tears the workers down.
type Pool struct {
	mu       sync.Mutex
	workers  []*conn
	cmds     []*exec.Cmd        // every process ever spawned (reaped at Close); empty for Listen pools
	procs    []*exec.Cmd        // per worker: the process behind the connection (nil entries for external workers)
	deadCmds map[*exec.Cmd]bool // processes retired mid-session; their exit status is not an error
	dir      string             // socket tempdir of a SpawnLocal pool
	ln       net.Listener       // retained SpawnLocal listener, for respawning replacements
	self     string             // executable respawned as a replacement worker
	sock     string             // endpoint replacement workers dial
	broken   error              // first infrastructure failure; poisons the pool
	closed   bool
	logw     *logWriter
	stats    SessionStats

	// Cumulative failover accounting across the pool's lifetime (the
	// per-session view lives in SessionStats).
	restartsTotal      int64
	redistributedTotal int64

	// levelHook, when set, is invoked at the start of each level's
	// merge — the fault-injection point the chaos tests use to kill
	// workers at deterministic-but-arbitrary session positions.
	hookMu    sync.Mutex
	levelHook func(level int)
}

// SessionStats describes the last completed exploration session —
// the protocol cost and per-worker replica memory the benchmarks and
// the CI memory gate report.
type SessionStats struct {
	Levels    int
	States    int
	BytesSent int64 // coordinator -> workers (init, records, commits, acks)
	BytesRecv int64 // workers -> coordinator (candidate streams)
	// CandNew counts candNew candidates across the session's merge; each
	// carries the successor hash the coordinator resolves it by.
	// CoordFires counts the transitions the coordinator actually fired:
	// only the genuinely new states it has to materialize (plus the rare
	// hash-alias fallback). Chunks counts candidate chunks received.
	CandNew    int64
	CoordFires int64
	Chunks     int64
	// Failover accounting. Restarts counts recovery rounds the session
	// needed, Redistributed the shards moved from dead workers onto
	// survivors when no replacement could be spawned, and Degraded
	// reports that the session ultimately failed — recovery exhausted —
	// and the caller should fall back to in-process exploration.
	Restarts      int
	Redistributed int
	Degraded      bool
	// Workers holds each worker's end-of-session replica accounting,
	// in worker-index order.
	Workers []WorkerMem
}

// spawnHandshakeTimeout bounds how long SpawnLocal waits for each
// spawned worker to connect and greet. Its main job is failing fast
// when the re-executed binary does not call MaybeWorker.
const spawnHandshakeTimeout = 30 * time.Second

// listenHandshakeTimeout is the per-worker accept deadline for
// externally started workers (cmd/qssd): humans start those by hand,
// possibly compiling first, so the window is generous.
const listenHandshakeTimeout = 5 * time.Minute

// SpawnLocal starts n worker processes by re-executing the current
// binary (which must call MaybeWorker early; see its doc) connected
// over a unix socket in a private temp directory, and returns the
// ready pool. The workers inherit the parent's environment, so
// QSS_DIST_LOGDIR propagates.
func SpawnLocal(n int) (*Pool, error) {
	if n < 1 {
		return nil, fmt.Errorf("dist: SpawnLocal needs >= 1 worker, got %d", n)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("dist: resolve executable: %w", err)
	}
	dir, err := os.MkdirTemp("", "qssdist-")
	if err != nil {
		return nil, err
	}
	sock := filepath.Join(dir, "coord.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	// The listener outlives the spawn: it is how the pool accepts
	// replacement workers when one dies mid-session. Close releases it.
	p := &Pool{dir: dir, ln: ln, self: self, sock: "unix:" + sock, logw: newLogWriter("coord")}
	for i := 0; i < n; i++ {
		if _, err := p.spawnProc(); err != nil {
			p.Close()
			return nil, fmt.Errorf("dist: spawn worker %d: %w", i, err)
		}
	}
	pids, err := p.accept(ln, n, spawnHandshakeTimeout)
	if err != nil {
		p.Close()
		return nil, err
	}
	// Map each accepted connection to the process behind it (the hello
	// carries the pid): worker-kill fault injection and respawn recovery
	// need to know which process backs which worker index.
	byPid := make(map[int]*exec.Cmd, len(p.cmds))
	for _, cmd := range p.cmds {
		byPid[cmd.Process.Pid] = cmd
	}
	p.procs = make([]*exec.Cmd, n)
	for i, pid := range pids {
		p.procs[i] = byPid[pid]
	}
	p.logw.printf("spawned %d local workers over %s", n, sock)
	return p, nil
}

// spawnProc starts one worker process dialing the pool's socket and
// adds it to the reap list.
func (p *Pool) spawnProc() (*exec.Cmd, error) {
	cmd := exec.Command(p.self)
	cmd.Env = append(os.Environ(),
		EnvWorker+"=1",
		EnvEndpoint+"="+p.sock,
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p.cmds = append(p.cmds, cmd)
	return cmd, nil
}

// Listen awaits n externally started workers (cmd/qssd -connect) at the
// endpoint ("unix:/path", "tcp:host:port", or a bare unix path) and
// returns the ready pool. The workers' lifecycle belongs to whoever
// started them; Close only drops the connections.
func Listen(endpoint string, n int) (*Pool, error) {
	if n < 1 {
		return nil, fmt.Errorf("dist: Listen needs >= 1 worker, got %d", n)
	}
	network, addr, err := ParseEndpoint(endpoint)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	p := &Pool{logw: newLogWriter("coord")}
	if _, err := p.accept(ln, n, listenHandshakeTimeout); err != nil {
		p.Close()
		return nil, err
	}
	p.logw.printf("accepted %d workers at %s", n, endpoint)
	return p, nil
}

// acceptOne accepts a single worker from the listener and runs the
// hello handshake under the given deadline.
func acceptOne(ln net.Listener, timeout time.Duration) (c *conn, pid int, err error) {
	type deadliner interface{ SetDeadline(time.Time) error }
	if d, ok := ln.(deadliner); ok {
		if err := d.SetDeadline(time.Now().Add(timeout)); err != nil {
			return nil, 0, fmt.Errorf("dist: arm accept deadline: %w", err)
		}
	}
	nc, err := ln.Accept()
	if err != nil {
		return nil, 0, err
	}
	c = newConn(nc)
	if err := nc.SetDeadline(time.Now().Add(timeout)); err != nil {
		nc.Close()
		return nil, 0, fmt.Errorf("dist: arm handshake deadline: %w", err)
	}
	payload, err := c.expect(msgHello)
	if err == nil {
		pid, err = checkHello(payload)
	}
	if err == nil {
		err = nc.SetDeadline(time.Time{})
	}
	if err != nil {
		nc.Close()
		return nil, 0, fmt.Errorf("dist: worker handshake: %w", err)
	}
	return c, pid, nil
}

// accept gathers n hello-ing workers from the listener and returns
// their self-reported pids. The deadline applies per worker (reset
// before each Accept), so a slowly assembled external pool is not cut
// off by the earlier arrivals' wait.
func (p *Pool) accept(ln net.Listener, n int, timeout time.Duration) ([]int, error) {
	var pids []int
	for len(p.workers) < n {
		c, pid, err := acceptOne(ln, timeout)
		if err != nil {
			return nil, fmt.Errorf("dist: waiting for worker %d/%d: %w", len(p.workers)+1, n, err)
		}
		p.workers = append(p.workers, c)
		pids = append(pids, pid)
	}
	return pids, nil
}

// NumWorkers returns the pool size.
func (p *Pool) NumWorkers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workers)
}

// Err reports the infrastructure failure that poisoned the pool, or
// nil while the pool is healthy. A session error is fatal to the pool
// (every later RunFrontier fails fast with the same cause), so
// long-lived owners amortizing one pool across many sessions — the
// resident server — probe Err after a failed synthesis to decide
// between retiring the pool and blaming the request.
func (p *Pool) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.broken
}

// LastSessionStats returns the protocol accounting of the most recently
// completed RunFrontier session.
func (p *Pool) LastSessionStats() SessionStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// closeTimeout bounds the teardown of locally spawned workers — one
// shared deadline for the whole pool, not per worker. A var so the
// lifecycle tests can shrink it.
var closeTimeout = 5 * time.Second

// Close ends every worker connection (workers exit on EOF), reaps
// locally spawned processes and removes the socket directory.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	if p.ln != nil {
		p.ln.Close()
	}
	for _, c := range p.workers {
		c.close()
	}
	firstErr := p.reapSpawned()
	if p.dir != "" {
		os.RemoveAll(p.dir)
	}
	return firstErr
}

// reapSpawned waits on every spawned worker concurrently under one
// shared deadline, so a hung pool tears down in closeTimeout total
// rather than closeTimeout per worker. Workers still running at the
// deadline are killed and then reaped; the kill itself is reported but
// a killed worker's Wait error is not (the kill was deliberate).
func (p *Pool) reapSpawned() error {
	if len(p.cmds) == 0 {
		return nil
	}
	type reap struct {
		i   int
		err error
	}
	done := make(chan reap, len(p.cmds))
	for i, cmd := range p.cmds {
		go func(i int, cmd *exec.Cmd) { done <- reap{i, cmd.Wait()} }(i, cmd)
	}
	var firstErr error
	reaped := make([]bool, len(p.cmds))
	killed := make([]bool, len(p.cmds))
	deadline := time.After(closeTimeout)
	for n := 0; n < len(p.cmds); {
		select {
		case r := <-done:
			n++
			reaped[r.i] = true
			if r.err != nil && !killed[r.i] && !p.deadCmds[p.cmds[r.i]] && firstErr == nil {
				firstErr = fmt.Errorf("dist: worker %d exited: %w", p.cmds[r.i].Process.Pid, r.err)
			}
		case <-deadline:
			deadline = nil // fire once; the kills below unblock the reaps
			hung := 0
			for i, cmd := range p.cmds {
				if !reaped[i] {
					killed[i] = true
					hung++
					cmd.Process.Kill()
				}
			}
			if hung > 0 && firstErr == nil {
				firstErr = fmt.Errorf("dist: %d workers hung at close; killed", hung)
			}
		}
	}
	return firstErr
}

// RunFrontier implements petri.FrontierRunner: one exploration session
// over the pool. The coordinator broadcasts ft's net, the spec and the
// roots, then streams each level's record batch to the owning workers while
// merging their candidate streams as the bytes arrive — the sequential
// first-discovery merge walks frontier states in MarkID order and each
// state's candidates in the serial emit order, so the hooks observe
// exactly the serial loop's sequence and the numbering is
// byte-identical for every worker count. Returns false when a Reject
// hook aborted; a non-nil error is an infrastructure failure and
// poisons the pool.
func (p *Pool) RunFrontier(ft *petri.FiringTable, store *petri.MarkingStore, spec petri.ExpandSpec, hooks petri.MergeHooks) (completed bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false, errors.New("dist: pool is closed")
	}
	if p.broken != nil {
		return false, fmt.Errorf("dist: pool failed earlier: %w", p.broken)
	}
	completed, err = p.runSession(ft, store, spec, hooks)
	if err != nil {
		p.broken = err
		p.logw.printf("session failed: %v", err)
	}
	return completed, err
}

// frame is one message forwarded by a per-connection reader goroutine.
type frame struct {
	typ     byte
	payload []byte
	err     error
}

// workerLink is a connection with its reader goroutine's frame channel.
// The channel holds a full credit window plus a terminal frame and a
// little slack for pong replies — the most a conforming
// worker ever has in flight — so the reader never blocks on a slow
// merge and worker-side sends always drain.
type workerLink struct {
	c  *conn
	ch chan frame
}

// startLink spawns the reader for one session on c. The reader exits —
// closing the channel — after forwarding a terminal frame: the
// session's stats reply, a worker error, or a transport failure.
func startLink(c *conn) *workerLink {
	l := &workerLink{c: c, ch: make(chan frame, chunkWindow+4)}
	go func() {
		defer close(l.ch)
		for {
			typ, payload, err := c.recvAlloc()
			if err != nil {
				l.ch <- frame{err: err}
				return
			}
			l.ch <- frame{typ: typ, payload: payload}
			if typ == msgStats || typ == msgError {
				return
			}
		}
	}()
	return l
}

// chunkStream is the merge-side cursor over one worker's candidate
// stream. Chunks are cut at state-group boundaries, so a
// refill happens only between states; each chunk pulled off the reader
// channel is acknowledged immediately, returning the credit that lets
// the worker keep expanding ahead of the merge.
type chunkStream struct {
	link   *workerLink
	await  func() (frame, error) // session-supplied receive (heartbeats while waiting)
	buf    []byte
	cands  int // candidates left within the current state group
	chunks int
}

func (s *chunkStream) refill() error {
	f, err := s.await()
	if err != nil {
		return err
	}
	switch f.typ {
	case msgChunk:
		s.buf = f.payload
		s.chunks++
		var ack [1]byte
		ack[0] = 1
		return s.link.c.send(msgAck, ack[:])
	case msgError:
		return &aliveError{msg: string(f.payload)}
	default:
		return fmt.Errorf("unexpected message type %d mid-session", f.typ)
	}
}

// nextState positions the stream at the given owned state and returns
// its candidate count, blocking on the worker's next chunk if the
// stream is dry.
func (s *chunkStream) nextState(want int) (int, error) {
	if s.cands != 0 {
		return 0, fmt.Errorf("previous state has %d unread candidates", s.cands)
	}
	for len(s.buf) == 0 {
		if err := s.refill(); err != nil {
			return 0, err
		}
	}
	id, rest, err := decodeUvarint(s.buf)
	if err != nil {
		return 0, fmt.Errorf("state id: %w", err)
	}
	if int(id) != want {
		return 0, fmt.Errorf("stream has state %d, merge expects %d", id, want)
	}
	n, rest, err := decodeUvarint(rest)
	if err != nil {
		return 0, fmt.Errorf("candidate count: %w", err)
	}
	if n > uint64(len(rest)) { // every candidate needs >= 1 byte of this chunk
		return 0, fmt.Errorf("candidate count %d exceeds chunk", n)
	}
	s.buf, s.cands = rest, int(n)
	return int(n), nil
}

// nextCand decodes one candidate; candNew candidates carry the
// successor's 64-bit hash.
func (s *chunkStream) nextCand() (tag int, trans int, known petri.MarkID, h uint64, err error) {
	if s.cands == 0 {
		return 0, 0, 0, 0, fmt.Errorf("no candidates left in state")
	}
	v, rest, err := decodeUvarint(s.buf)
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("candidate: %w", err)
	}
	tag, trans = int(v&3), int(v>>2)
	switch tag {
	case candVeto:
	case candKnown:
		var g uint64
		g, rest, err = decodeUvarint(rest)
		if err == nil && g >= uint64(petri.NoMark) {
			err = fmt.Errorf("%d out of range", g)
		}
		if err != nil {
			return 0, 0, 0, 0, fmt.Errorf("known id: %w", err)
		}
		known = petri.MarkID(g)
	case candNew:
		h, rest, err = decodeUvarint(rest)
		if err != nil {
			return 0, 0, 0, 0, fmt.Errorf("candidate hash: %w", err)
		}
	default:
		return 0, 0, 0, 0, fmt.Errorf("unknown candidate tag %d", tag)
	}
	s.buf, s.cands = rest, s.cands-1
	return tag, trans, known, h, nil
}

func startBytes(ws []*conn) (totals [2]int64) {
	for _, c := range ws {
		totals[0] += c.sent.Load()
		totals[1] += c.received.Load()
	}
	return totals
}

func sentRecvSince(ws []*conn, start [2]int64) (sent, recv int64) {
	now := startBytes(ws)
	return now[0] - start[0], now[1] - start[1]
}
