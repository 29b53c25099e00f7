package dist

// Coordinator-side failover: a session survives worker death. The
// design leans entirely on the determinism contract — the coordinator's
// store is authoritative and MarkID assignment never leaves its
// sequential merge — so a session can be re-attempted from the last
// committed level with any worker count and any shard layout and still
// produce byte-identical results:
//
//   - detection: every receive the merge blocks on runs through
//     awaitFrame, which pings the awaited worker each
//     heartbeatInterval and declares it dead when no frame at all
//     (chunk, pong, stats, error) arrives within heartbeatTimeout.
//     Sends carry write deadlines (conn.armWrite), so a peer that
//     stopped reading fails the send instead of wedging the session.
//   - recovery: runSession wraps per-attempt state (attempt) in a
//     restart loop. On a death it quiesces the survivors back to their
//     serve loops, respawns a replacement process (SpawnLocal pools;
//     bounded jittered-backoff retries) or drops the dead worker and
//     re-shards across the survivors, then re-inits everyone: each
//     init seeds its worker's replica with the owned states of the
//     interrupted level and after, read from the authoritative store.
//     The merge replays the interrupted level, discarding the
//     candidates whose hooks already ran (resume counts them), and
//     continues.
//   - exhaustion: after maxSessionRestarts failed recoveries the
//     session errors with SessionStats.Degraded set, and the pool is
//     poisoned as after any other session error.

import (
	"errors"
	"fmt"
	"math/rand"
	"os/exec"
	"time"

	"repro/internal/petri"
)

var (
	// maxSessionRestarts bounds the recovery rounds one RunFrontier
	// session may consume before giving up. A var so tests can shrink
	// or zero it.
	maxSessionRestarts = 3
	// respawnAttempts and respawnBackoff shape the retry loop for
	// re-executing a replacement worker: attempt k sleeps
	// respawnBackoff*2^(k-1) plus up to the same again of jitter.
	respawnAttempts = 3
	respawnBackoff  = 100 * time.Millisecond
)

// workerDeath attributes a session failure to one worker. alive means
// the worker reported the failure itself over an intact transport (it
// is draining toward its serve loop and remains usable); otherwise the
// link is unusable and the worker is gone.
type workerDeath struct {
	idx   int
	alive bool
	err   error
}

func (d *workerDeath) Error() string {
	return fmt.Sprintf("dist: worker %d failed: %v", d.idx, d.err)
}

func (d *workerDeath) Unwrap() error { return d.err }

// aliveError marks a failure the worker reported itself (msgError):
// the session is lost but the transport and the worker's serve loop
// are intact.
type aliveError struct{ msg string }

func (e *aliveError) Error() string { return "worker error: " + e.msg }

var errReaderExited = errors.New("reader exited mid-session")

// resume is the recovery checkpoint threaded through a session's
// attempts: which level the merge was in and how much of it is already
// processed, so a replay can discard exactly the candidates whose
// hooks ran before the failure.
type resume struct {
	active     bool // a level has begun; a re-init seeds from levelStart
	aborted    bool // a Reject hook ended the session; only the finish remains
	levelStart int  // the level being merged: [levelStart, levelEnd)
	levelEnd   int
	merged     int  // last id whose BeginState ran (levelStart-1 if none)
	cands      int  // candidates of state merged already processed
	levelDone  bool // the level completed and was counted before the failure
}

// runSession runs the pipelined session with failover: attempts run
// until one succeeds, recovery fails, or the restart budget is spent.
func (p *Pool) runSession(ft *petri.FiringTable, store *petri.MarkingStore, spec petri.ExpandSpec, hooks petri.MergeHooks) (bool, error) {
	p.stats = SessionStats{}
	var rs resume
	for {
		a := &attempt{p: p}
		completed, err := a.run(ft, store, spec, hooks, &rs)
		if err == nil {
			return completed, nil
		}
		var wd *workerDeath
		if !errors.As(err, &wd) {
			a.abort()
			return false, err
		}
		if p.stats.Restarts >= maxSessionRestarts {
			a.abort()
			p.stats.Degraded = true
			return false, fmt.Errorf("dist: recovery exhausted after %d restarts: %w", p.stats.Restarts, err)
		}
		p.logw.printf("worker %d died mid-session (%v); recovering (restart %d/%d)",
			wd.idx, wd.err, p.stats.Restarts+1, maxSessionRestarts)
		if rerr := p.recoverSession(a, wd); rerr != nil {
			a.abort()
			p.stats.Degraded = true
			return false, fmt.Errorf("dist: recovery failed: %v (after %w)", rerr, err)
		}
		p.stats.Restarts++
	}
}

// recoverSession repairs the pool after a worker death: quiesce the
// survivors back to their serve loops, then for each dead worker
// either respawn a replacement (SpawnLocal pools) or drop it so the
// next attempt re-shards across the survivors. Callers hold p.mu.
func (p *Pool) recoverSession(a *attempt, wd *workerDeath) error {
	dead := make([]bool, len(p.workers))
	if wd.alive {
		// The worker reported the failure itself: its transport and
		// serve loop are intact (it drains until the next init), so it
		// stays. Its reader has exited; flush the link.
		a.drain(wd.idx)
	} else {
		dead[wd.idx] = true
	}
	for i := range p.workers {
		if dead[i] || i == wd.idx {
			continue
		}
		if err := a.quiesce(i); err != nil {
			p.logw.printf("worker %d failed to quiesce: %v", i, err)
			dead[i] = true
		}
	}
	var gone []int
	for i := range p.workers {
		if !dead[i] {
			continue
		}
		p.workers[i].close()
		a.drain(i)
		p.retireProc(i)
		if p.ln != nil && p.self != "" {
			if err := p.respawnWorker(i); err != nil {
				p.logw.printf("respawn worker %d: %v", i, err)
				gone = append(gone, i)
			}
		} else {
			gone = append(gone, i)
		}
	}
	if len(gone) == 0 {
		return nil
	}
	if len(gone) == len(p.workers) {
		return errors.New("no workers survive")
	}
	// The dropped workers' shards move to the survivors implicitly:
	// the next attempt re-inits with a fresh shard count for the
	// smaller pool, and the inits seed every replica under the new
	// layout. Only the accounting happens here.
	for _, i := range gone {
		lo, hi := petri.OwnedShardRange(i, a.S, a.W)
		p.stats.Redistributed += hi - lo
	}
	p.removeWorkers(gone)
	p.logw.printf("dropped %d dead workers; %d survivors take over their shards", len(gone), len(p.workers))
	return nil
}

// respawnWorker re-executes a replacement process for worker slot i
// with jittered exponential backoff. Callers hold p.mu.
func (p *Pool) respawnWorker(i int) error {
	var lastErr error
	backoff := respawnBackoff
	for attempt := 0; attempt < respawnAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff + time.Duration(rand.Int63n(int64(backoff))))
			backoff *= 2
		}
		cmd, err := p.spawnProc()
		if err != nil {
			lastErr = err
			continue
		}
		c, _, err := acceptOne(p.ln, spawnHandshakeTimeout)
		if err != nil {
			lastErr = err
			p.markDead(cmd)
			cmd.Process.Kill()
			continue
		}
		p.workers[i] = c
		p.procs[i] = cmd
		p.logw.printf("respawned worker %d (pid %d)", i, cmd.Process.Pid)
		return nil
	}
	return fmt.Errorf("dist: respawn after %d attempts: %w", respawnAttempts, lastErr)
}

// markDead exempts a deliberately killed process from reap-time error
// reporting.
func (p *Pool) markDead(cmd *exec.Cmd) {
	if p.deadCmds == nil {
		p.deadCmds = make(map[*exec.Cmd]bool)
	}
	p.deadCmds[cmd] = true
}

// retireProc kills and forgets the process behind worker slot i, if
// the pool owns one.
func (p *Pool) retireProc(i int) {
	if p.procs == nil || i >= len(p.procs) || p.procs[i] == nil {
		return
	}
	p.markDead(p.procs[i])
	p.procs[i].Process.Kill()
	p.procs[i] = nil
}

// removeWorkers drops the given worker slots, keeping the parallel
// bookkeeping slices aligned.
func (p *Pool) removeWorkers(gone []int) {
	rm := make(map[int]bool, len(gone))
	for _, i := range gone {
		rm[i] = true
	}
	var ws []*conn
	var procs []*exec.Cmd
	for i := range p.workers {
		if rm[i] {
			continue
		}
		ws = append(ws, p.workers[i])
		if p.procs != nil {
			procs = append(procs, p.procs[i])
		}
	}
	p.workers = ws
	if p.procs != nil {
		p.procs = procs
	}
}

// SetLevelHook installs fn to run at the start of every level's merge
// (including a recovered level's replay), with the count of completed
// levels as its argument. It is the fault-injection point of the chaos
// tests; hooks run on the session goroutine and may call KillWorker.
func (p *Pool) SetLevelHook(fn func(level int)) {
	p.hookMu.Lock()
	defer p.hookMu.Unlock()
	p.levelHook = fn
}

func (p *Pool) fireLevelHook(level int) {
	p.hookMu.Lock()
	fn := p.levelHook
	p.hookMu.Unlock()
	if fn != nil {
		fn(level)
	}
}

// KillWorker kills the OS process behind worker slot i — fault
// injection for the chaos tests, meaningful only for SpawnLocal pools.
// Safe to call from a level hook (the session goroutine); it must NOT
// be called concurrently with pool methods that take p.mu.
func (p *Pool) KillWorker(i int) error {
	if p.procs == nil || i < 0 || i >= len(p.procs) || p.procs[i] == nil {
		return fmt.Errorf("dist: no process behind worker %d", i)
	}
	p.markDead(p.procs[i])
	return p.procs[i].Process.Kill()
}

// attempt is one try at a session: the per-attempt reader links,
// streams and shard layout. A failed attempt's links are drained by
// recovery; a new attempt starts fresh.
type attempt struct {
	p       *Pool
	W, S    int
	links   []*workerLink
	streams []chunkStream
}

// deathOf wraps a worker failure for the restart loop, detecting the
// worker-reported (alive) flavor.
func (a *attempt) deathOf(i int, err error) error {
	var ae *aliveError
	return &workerDeath{idx: i, alive: errors.As(err, &ae), err: err}
}

func (a *attempt) die(i int, err error) (bool, error) {
	return false, a.deathOf(i, err)
}

// drain flushes worker i's reader channel to closure. The reader must
// be on its way out (terminal frame forwarded or connection closed).
func (a *attempt) drain(i int) {
	if a.links == nil || a.links[i] == nil {
		return
	}
	for range a.links[i].ch {
	}
}

// abort poisons the attempt: close every connection so workers and
// readers unwind, then drain the reader channels so no goroutine
// outlives the session.
func (a *attempt) abort() {
	for _, c := range a.p.workers {
		c.close()
	}
	for i := range a.links {
		a.drain(i)
	}
}

// quiesce ends worker i's session cleanly after another worker died:
// send done, consume frames to the terminal stats (or worker error —
// either way the worker ends at its serve loop awaiting the next
// init). In-flight chunks are discarded unacked; the session is over.
func (a *attempt) quiesce(i int) error {
	if err := a.p.workers[i].send(msgDone, nil); err != nil {
		return err
	}
	deadline := time.NewTimer(heartbeatTimeout)
	defer deadline.Stop()
	for {
		select {
		case f, ok := <-a.links[i].ch:
			if !ok {
				return errReaderExited
			}
			if f.err != nil {
				return f.err
			}
			switch f.typ {
			case msgStats, msgError:
				a.drain(i)
				return nil
			case msgChunk, msgPong:
			default:
				return fmt.Errorf("unexpected message type %d", f.typ)
			}
		case <-deadline.C:
			return fmt.Errorf("no stats within %v", heartbeatTimeout)
		}
	}
}

// awaitFrame blocks for worker i's next frame. It pings the awaited
// worker every heartbeatInterval — any frame in reply, pong included,
// proves liveness — and gives up after heartbeatTimeout with no frame
// at all, bounding how long a silently dead worker can stall the merge.
func (a *attempt) awaitFrame(i int) (frame, error) {
	l := a.links[i]
	deadline := time.NewTimer(heartbeatTimeout)
	defer deadline.Stop()
	tick := time.NewTicker(heartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case f, ok := <-l.ch:
			if !ok {
				return frame{}, errReaderExited
			}
			if f.err != nil {
				return frame{}, f.err
			}
			if f.typ == msgPong {
				// Liveness proven; keep waiting for the real frame.
				if !deadline.Stop() {
					select {
					case <-deadline.C:
					default:
					}
				}
				deadline.Reset(heartbeatTimeout)
				continue
			}
			return f, nil
		case <-tick.C:
			if err := l.c.send(msgPing, nil); err != nil {
				return frame{}, fmt.Errorf("ping: %w", err)
			}
		case <-deadline.C:
			return frame{}, fmt.Errorf("no frame within %v (heartbeat timeout)", heartbeatTimeout)
		}
	}
}

func (a *attempt) owner(store *petri.MarkingStore, id petri.MarkID) int {
	return petri.ShardOwner(petri.ShardOfHash(store.HashAt(id), a.S), a.S, a.W)
}

// run is one session attempt: the inits, the pipelined merge, and the
// stats epilogue. See the package comment in
// dist.go for the merge's shape; this is petri.Drive's sequential merge
// consuming each owner's chunk stream as the bytes arrive, firing and
// hashing through the caller's ft. All failures return as
// *workerDeath for the restart loop.
func (a *attempt) run(ft *petri.FiringTable, store *petri.MarkingStore, spec petri.ExpandSpec, hooks petri.MergeHooks, rs *resume) (bool, error) {
	p, n := a.p, ft.Net()
	W := len(p.workers)
	S := petri.NumFrontierShards(W)
	a.W, a.S = W, S
	start0 := startBytes(p.workers)
	defer func() {
		sent, recvd := sentRecvSince(p.workers, start0)
		p.stats.BytesSent += sent
		p.stats.BytesRecv += recvd
	}()
	for _, c := range p.workers {
		c.writeTimeout = sendTimeout
	}
	// Links start before the inits so that even an init failure leaves
	// an attempt whose channels recovery can drain.
	a.links = make([]*workerLink, W)
	for i, c := range p.workers {
		a.links[i] = startLink(c)
	}
	a.streams = make([]chunkStream, W)
	for i := range a.streams {
		a.streams[i].link = a.links[i]
		a.streams[i].await = func() (frame, error) { return a.awaitFrame(i) }
	}
	// Each init seeds its worker with the owned states of the level it
	// starts in and after: the roots of a fresh session, or, resuming,
	// the interrupted level plus the uncommitted tail the merge already
	// interned. A session a Reject hook already ended seeds nothing:
	// only its epilogue was interrupted.
	lo, hi := 0, store.Len()
	if rs.active {
		lo, hi = rs.levelStart, rs.levelEnd
	}
	var payload []byte
	for i, c := range p.workers {
		init := &initMsg{index: i, workers: W, shards: S, lo: lo, hi: hi, net: n, spec: spec}
		for id := lo; id < store.Len() && !rs.aborted; id++ {
			if g := petri.MarkID(id); a.owner(store, g) == i {
				init.gids = append(init.gids, g)
				init.vecs = append(init.vecs, store.At(g))
			}
		}
		payload = appendInit(payload[:0], init)
		if err := c.send(msgInit, payload); err != nil {
			return a.die(i, fmt.Errorf("init: %w", err))
		}
	}
	if rs.aborted {
		return a.finish(n, store, false)
	}
	var (
		pending = make([][]petri.VecDelta, W) // per-worker record batches
		vcaches = make([]*vecCache, W)        // per-worker cache models
		scratch petri.Marking
	)
	for i := range vcaches {
		vcaches[i] = newVecCache()
	}
	// flushRecs ships worker i's pending records. Boundary-parent vector
	// attachment happens here, at flush time in record order — the same
	// sequence the worker applies them in, keeping the two cache models
	// in lockstep (see vcache.go).
	flushRecs := func(i int) error {
		recs := pending[i]
		if len(recs) == 0 {
			return nil
		}
		for k := range recs {
			if a.owner(store, recs[k].Parent) == i {
				continue
			}
			if !vcaches[i].hit(recs[k].Parent) {
				recs[k].ParentVec = store.At(recs[k].Parent)
			}
		}
		payload = petri.AppendVecDeltas(payload[:0], recs)
		if err := p.workers[i].send(msgRecords, payload); err != nil {
			return a.deathOf(i, fmt.Errorf("records: %w", err))
		}
		pending[i] = recs[:0]
		return nil
	}
	resuming := rs.active
	levelStart := 0
	if resuming {
		levelStart = rs.levelStart
	}
	for {
		levelEnd := store.Len()
		first := resuming
		resuming = false
		if first {
			// Replaying the interrupted level: its end was committed to
			// the workers before the failure, and the store may already
			// hold an uncommitted tail beyond it.
			levelEnd = rs.levelEnd
		} else {
			// Checkpoint before the commit sends: a death anywhere past
			// this point resumes at this level.
			rs.active = true
			rs.levelStart, rs.levelEnd = levelStart, levelEnd
			rs.merged, rs.cands = levelStart-1, 0
			rs.levelDone = false
		}
		if levelStart == levelEnd {
			// Exploration complete: every state is closed.
			return a.finish(n, store, true)
		}
		if levelStart > 0 && !first {
			// The records of [levelStart, levelEnd) have been streaming
			// since the previous merge discovered them; flush the tails
			// and commit the range so workers can pin and expand the
			// whole level.
			for i := range p.workers {
				if err := flushRecs(i); err != nil {
					return false, err
				}
			}
			payload = appendLevel(payload[:0], levelStart, levelEnd)
			for i, c := range p.workers {
				if err := c.send(msgLevel, payload); err != nil {
					return a.die(i, fmt.Errorf("level commit: %w", err))
				}
			}
		}
		p.fireLevelHook(p.stats.Levels)
		// Sequential first-discovery merge, exactly petri.Drive's —
		// consuming each owner's chunk stream as the bytes arrive. On a replay, candidates up to the checkpoint are
		// consumed and discarded: their hooks ran before the failure and
		// every side effect (stats, records, interned states) survives
		// in the coordinator.
		for id := levelStart; id < levelEnd; id++ {
			ow := a.owner(store, petri.MarkID(id))
			st := &a.streams[ow]
			discard := first && id < rs.merged
			skip := 0
			if first && id == rs.merged {
				skip = rs.cands
			}
			if !discard && !(first && id == rs.merged) {
				if hooks.BeginState != nil {
					hooks.BeginState(petri.MarkID(id))
				}
				rs.merged, rs.cands = id, 0
			}
			cands, err := st.nextState(id)
			if err != nil {
				return a.die(ow, fmt.Errorf("stream: %w", err))
			}
			for k := 0; k < cands; k++ {
				tag, trans, known, h, err := st.nextCand()
				if err != nil {
					return a.die(ow, fmt.Errorf("stream: %w", err))
				}
				if discard || k < skip {
					continue
				}
				if trans < 0 || trans >= len(n.Transitions) {
					return a.die(ow, fmt.Errorf("candidate transition %d out of range", trans))
				}
				switch tag {
				case candVeto:
					if !hooks.Reject(petri.MarkID(id), int32(trans), false) {
						rs.aborted = true
						return a.finish(n, store, false)
					}
				case candKnown:
					// The worker pinned classification at the level start:
					// anything at or beyond it travels as candNew.
					if int(known) >= levelStart {
						return a.die(ow, fmt.Errorf("known state %d at or beyond level start %d", known, levelStart))
					}
					hooks.Edge(petri.MarkID(id), int32(trans), known, false)
				case candNew:
					p.stats.CandNew++
					var g petri.MarkID
					found := false
					aliased := store.HashAliased()
					if !aliased {
						g, found = store.LookupHash(h)
					}
					if !found {
						// Fire once: to materialize a genuinely new vector,
						// or, once two interned markings share a hash and
						// the bare probe is ambiguous, for the vector-exact
						// lookup.
						t := n.Transitions[trans]
						m := store.At(petri.MarkID(id))
						if !m.Enabled(t) {
							return a.die(ow, fmt.Errorf("candidate fires disabled %s at state %d", t.Name, id))
						}
						scratch = ft.Fire(scratch, m, trans)
						p.stats.CoordFires++
						if aliased {
							g, found = store.LookupHashed(scratch, h)
						}
					}
					if found {
						hooks.Edge(petri.MarkID(id), int32(trans), g, false)
						rs.cands++
						continue
					}
					if spec.Veto(scratch) {
						return a.die(ow, fmt.Errorf("new candidate of state %d exceeds the place caps — worker/coordinator spec mismatch", id))
					}
					if hv := ft.Hash(store.HashAt(petri.MarkID(id)), trans); hv != h {
						return a.die(ow, fmt.Errorf("candidate hash %#x, coordinator computes %#x — replica drift", h, hv))
					}
					if hooks.Admit != nil && !hooks.Admit() {
						if !hooks.Reject(petri.MarkID(id), int32(trans), true) {
							rs.aborted = true
							return a.finish(n, store, false)
						}
						rs.cands++
						continue
					}
					g, _ = store.InternHashed(scratch, h)
					// The record is buffered now but flushed only after the
					// candidate completes (Edge + checkpoint): the flush is
					// the one fallible step here, and a death between the
					// intern and the checkpoint would make the replay
					// misclassify this discovery as a revisit.
					cw := petri.ShardOwner(petri.ShardOfHash(h, S), S, W)
					pending[cw] = append(pending[cw], petri.VecDelta{
						Child: g, Parent: petri.MarkID(id), Trans: int32(trans),
					})
					hooks.Edge(petri.MarkID(id), int32(trans), g, true)
					rs.cands++
					if len(pending[cw]) >= recordFlush {
						if err := flushRecs(cw); err != nil {
							return false, err
						}
					}
					continue
				}
				rs.cands++
			}
		}
		if !(first && rs.levelDone) {
			p.stats.Levels++
		}
		rs.levelDone = true
		levelStart = levelEnd
	}
}

// finish runs the stats epilogue. On a completed exploration the
// result is already final, so a worker failing here is retired (its
// memory zeroed, its connection closed for the next session's recovery
// to repair) rather than failing the session; on an aborted one a
// failure is a regular death.
func (a *attempt) finish(n *petri.Net, store *petri.MarkingStore, completed bool) (bool, error) {
	p := a.p
	p.stats.Workers = make([]WorkerMem, a.W)
	retired := make([]bool, a.W)
	retire := func(i int, err error) {
		p.logw.printf("worker %d failed after completion (%v); retiring connection", i, err)
		p.workers[i].close()
		a.drain(i)
		p.stats.Workers[i] = WorkerMem{}
		retired[i] = true
	}
	for i, c := range p.workers {
		if err := c.send(msgDone, nil); err != nil {
			if !completed {
				return a.die(i, fmt.Errorf("finish: %w", err))
			}
			retire(i, err)
		}
	}
	for i := range a.streams {
		if retired[i] {
			continue
		}
		if completed && (len(a.streams[i].buf) != 0 || a.streams[i].cands != 0) {
			return a.die(i, fmt.Errorf("stream not fully consumed (%d bytes, %d candidates left)", len(a.streams[i].buf), a.streams[i].cands))
		}
		p.stats.Chunks += int64(a.streams[i].chunks)
	}
	// Drain each link to the stats frame; chunks past the merge's
	// stopping point are legitimate only on an aborted session.
	for i := range p.workers {
		if retired[i] {
			continue
		}
	drain:
		for {
			f, err := a.awaitFrame(i)
			if err != nil {
				if !completed {
					return a.die(i, fmt.Errorf("stats: %w", err))
				}
				retire(i, err)
				break
			}
			switch f.typ {
			case msgChunk:
				if completed {
					retire(i, errors.New("streamed a chunk past the last level"))
					break drain
				}
			case msgError:
				if !completed {
					return a.die(i, &aliveError{msg: string(f.payload)})
				}
				// The worker failed its own teardown but stays usable:
				// it drains until the next init.
				p.logw.printf("worker %d errored after completion: %s", i, f.payload)
				break drain
			case msgStats:
				mem, derr := decodeStats(f.payload)
				if derr != nil {
					if !completed {
						return a.die(i, fmt.Errorf("stats: %w", derr))
					}
					retire(i, derr)
					break drain
				}
				p.stats.Workers[i] = mem
				break drain
			default:
				if !completed {
					return a.die(i, fmt.Errorf("unexpected message type %d before stats", f.typ))
				}
				retire(i, fmt.Errorf("unexpected message type %d before stats", f.typ))
				break drain
			}
		}
	}
	p.stats.States = store.Len()
	p.logw.printf("session %s: %d levels, %d states, %d candNew (%d fires, %d chunks), %d restarts (completed=%v)",
		n.Name, p.stats.Levels, p.stats.States, p.stats.CandNew, p.stats.CoordFires, p.stats.Chunks, p.stats.Restarts, completed)
	return completed, nil
}
