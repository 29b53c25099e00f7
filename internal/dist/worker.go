package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"

	"repro/internal/petri"
)

// Worker side: a trimmed replica of the exploration state plus the
// serve loop.
//
// A worker holds marking vectors, hashes and enabled bitsets ONLY for
// the hash shards it owns: the coordinator sends it just the VecDelta
// records whose child lands in those shards, attaching the parent's
// token vector when the parent belongs to another worker. Per-worker
// memory therefore scales with owned states, ~1/N of the state space —
// the property that takes explorations past one machine's RAM.
//
// The worker expands exactly the frontier states it holds and
// classifies each successor as veto / known / new, reporting successors
// of foreign shards as new and leaving their resolution to the
// coordinator's merge; ordering decisions stay with the coordinator, so
// results are byte-identical across worker counts.

// replica is one session's worker-side state.
type replica struct {
	net     *petri.Net
	part    []*petri.ECS
	fires   *petri.FiringTable
	stride  int
	spec    petri.ExpandSpec
	store   *petri.MarkingStore
	bits    []uint64
	scratch petri.Marking

	// gids maps the store's dense local ids to the coordinator's global
	// MarkIDs (strictly ascending, so the inverse is a binary search),
	// and vcache holds boundary-parent vectors in lockstep with the
	// coordinator.
	gids   []petri.MarkID
	vcache *vecCache

	index, workers, shards int
}

// interned records the global id g of the local state just interned
// and returns its enabled-set words for the caller to fill with
// fires.Init or Update. Every intern site calls it exactly once, in
// intern order. gids and bits grow by petri.Push and petri.Extend.
func (r *replica) interned(g petri.MarkID) []uint64 {
	petri.Push(&r.gids, g)
	base := len(r.bits)
	petri.Extend(&r.bits, r.stride)
	return r.bits[base:]
}

// newReplica builds a session's replica from its init alone: the
// worker's owned states from the init's level on, interned in
// ascending global id order with their enabled sets computed from
// scratch (fires.Init and the incremental Update agree bit for bit).
// The replica builds its own FiringTable from the decoded net.
// With the init's freeze flag set, the store's frozen tier is on: once
// the coordinator commits a level, states below it can never again be
// record parents or expansion sources, so only their hashes and segment
// offsets stay resident — the per-worker footprint shrinks on top of
// what trimming already saves.
func newReplica(m *initMsg) (*replica, error) {
	r := &replica{
		net:     m.net,
		spec:    m.spec,
		index:   m.index,
		workers: m.workers,
		shards:  m.shards,
		store:   petri.NewMarkingStore(len(m.net.Places)),
	}
	r.part = r.net.ECSPartition()
	r.fires = petri.NewFiringTable(r.net, r.part)
	r.stride = r.fires.Stride()
	if len(m.spec.Mask) != r.stride {
		return nil, fmt.Errorf("dist: spec mask has %d words, partition needs %d — net round-trip mismatch", len(m.spec.Mask), r.stride)
	}
	if len(m.spec.Caps) != len(r.net.Places) {
		return nil, fmt.Errorf("dist: spec caps cover %d places, net has %d", len(m.spec.Caps), len(r.net.Places))
	}
	r.vcache = newVecCache()
	if m.freeze {
		// Without a segment file the replica runs all-hot.
		_ = r.store.EnableFreeze(r.fires)
	}
	for i, vec := range m.vecs {
		g := m.gids[i]
		if len(vec) != len(r.net.Places) {
			return nil, fmt.Errorf("dist: init state %d has %d places, net has %d", g, len(vec), len(r.net.Places))
		}
		if int(g) < m.lo {
			return nil, fmt.Errorf("dist: init state %d below level start %d", g, m.lo)
		}
		if n := len(r.gids); n > 0 && r.gids[n-1] >= g {
			return nil, fmt.Errorf("dist: init state %d not ascending (last %d)", g, r.gids[n-1])
		}
		h := petri.HashMarking(vec)
		if !r.ownsHash(h) {
			return nil, fmt.Errorf("dist: init state %d routes outside this worker's shards", g)
		}
		id, isNew := r.store.InternHashed(vec, h)
		if !isNew {
			return nil, fmt.Errorf("dist: init state %d duplicates state %d", g, r.gids[id])
		}
		// Seeded states freeze verbatim.
		r.fires.Init(r.interned(g), r.store.At(id))
	}
	return r, nil
}

// ownsHash reports whether this worker's shard range contains the
// marking hash.
func (r *replica) ownsHash(h uint64) bool {
	sh := petri.ShardOfHash(h, r.shards)
	return petri.ShardOwner(sh, r.shards, r.workers) == r.index
}

// localOf maps a global MarkID to the local store id holding it: a
// binary search over the ascending gids table.
func (r *replica) localOf(g petri.MarkID) (petri.MarkID, bool) {
	i := sort.Search(len(r.gids), func(i int) bool { return r.gids[i] >= g })
	if i < len(r.gids) && r.gids[i] == g {
		return petri.MarkID(i), true
	}
	return petri.NoMark, false
}

// applyRec interns one owned child. The parent vector comes from the
// owned store, from the record itself, or from the boundary-parent
// cache (whose state mirrors the coordinator's; a miss is a protocol
// failure, not a recoverable condition). A child derived from a
// shipped or cached vector gets its enabled set from fires.Init —
// the incremental Update needs the parent's bitset, which only owned
// parents have. Init and Update agree bit-for-bit.
func (r *replica) applyRec(rec petri.VecDelta) error {
	if int(rec.Trans) < 0 || int(rec.Trans) >= len(r.net.Transitions) {
		return fmt.Errorf("dist: record transition %d out of range", rec.Trans)
	}
	t := r.net.Transitions[rec.Trans]
	var pv petri.Marking
	parentLocal := petri.NoMark
	if local, ok := r.localOf(rec.Parent); ok {
		if rec.ParentVec != nil {
			return fmt.Errorf("dist: record ships a vector for owned parent %d", rec.Parent)
		}
		parentLocal = local
		pv = r.store.At(local)
	} else if rec.ParentVec != nil {
		if len(rec.ParentVec) != len(r.net.Places) {
			return fmt.Errorf("dist: record parent %d vector has %d places, net has %d", rec.Parent, len(rec.ParentVec), len(r.net.Places))
		}
		pv = rec.ParentVec
		r.vcache.insert(rec.Parent, rec.ParentVec)
	} else {
		var ok bool
		pv, ok = r.vcache.get(rec.Parent)
		if !ok {
			return fmt.Errorf("dist: record parent %d neither owned, shipped nor cached — coordinator/worker cache drift", rec.Parent)
		}
	}
	if !pv.Enabled(t) {
		return fmt.Errorf("dist: record fires disabled transition %s at parent %d", t.Name, rec.Parent)
	}
	r.scratch = r.fires.Fire(r.scratch, pv, int(rec.Trans))
	h := petri.HashMarking(r.scratch)
	if !r.ownsHash(h) {
		return fmt.Errorf("dist: record child %d routes outside this worker's shards", rec.Child)
	}
	// Provenance is in LOCAL ids: a non-owned parent (shipped or cached
	// vector) has none (NoMark), so the child freezes verbatim.
	id, isNew := r.store.InternChild(r.scratch, h, parentLocal, rec.Trans)
	if !isNew {
		return fmt.Errorf("dist: record (%d, %s) re-discovers state %d", rec.Parent, t.Name, r.gids[id])
	}
	if n := len(r.gids); n > 0 && r.gids[n-1] >= rec.Child {
		return fmt.Errorf("dist: record child %d not ascending (last %d)", rec.Child, r.gids[n-1])
	}
	bits := r.interned(rec.Child)
	if parentLocal != petri.NoMark {
		r.fires.Update(bits, r.bits[int(parentLocal)*r.stride:(int(parentLocal)+1)*r.stride], int(rec.Trans), r.store.At(id))
	} else {
		r.fires.Init(bits, r.store.At(id))
	}
	return nil
}

// expandState emits one owned state's candidate stream: the fireable
// enabled ECSs in partition order, members in ascending transition
// order — the serial loop's emit order, which the coordinator's merge
// depends on. id is a LOCAL store id; the stream names global ids.
//
// Classification is pinned: a successor resolving to a global id at or
// beyond pin — the expanded state's own level start — is emitted
// candNew (with its 64-bit hash) instead of candKnown. Workers expand a
// state whenever its record arrives, so the replica may or may not
// already hold same-level or next-level successors at that moment; the
// pin makes the emitted bytes a pure function of the state, not of how
// far the record stream happened to have progressed, preserving the
// byte-identical determinism contract. The coordinator resolves every
// candNew by the shipped hash without re-firing.
//
// Pin 0 is the root level: only a root can be over a cap, so only
// there does the worker check the state itself and, if it is, veto its
// successors by the full cap scan (petri.FiringTable.Veto's full flag).
func (r *replica) expandState(dst []byte, id, pin petri.MarkID) []byte {
	m := r.store.At(id)
	ph := r.store.HashAt(id)
	full := pin == 0 && r.spec.Veto(m)
	bits := r.bits[int(id)*r.stride : (int(id)+1)*r.stride]
	// First pass counts candidates (the stream is length-prefixed);
	// enabled-set iteration is two bit scans, firing happens once.
	cands := 0
	petri.ForEachMaskedBit(bits, r.spec.Mask, func(ei int) {
		cands += len(r.part[ei].Trans)
	})
	dst = binary.AppendUvarint(dst, uint64(r.gids[id]))
	dst = binary.AppendUvarint(dst, uint64(cands))
	petri.ForEachMaskedBit(bits, r.spec.Mask, func(ei int) {
		for _, tid := range r.part[ei].Trans {
			r.scratch = r.fires.Fire(r.scratch, m, tid)
			switch gid, h, ok := r.classify(ph, tid, full); {
			case !ok:
				dst = binary.AppendUvarint(dst, uint64(tid)<<2|candVeto)
			case gid != petri.NoMark && gid < pin:
				dst = binary.AppendUvarint(dst, uint64(tid)<<2|candKnown)
				dst = binary.AppendUvarint(dst, uint64(gid))
			default:
				dst = binary.AppendUvarint(dst, uint64(tid)<<2|candNew)
				dst = binary.AppendUvarint(dst, h)
			}
		}
	})
	return dst
}

// classify resolves the scratch successor, reached by firing tid at a
// state hashed ph: ok=false for a cap veto, otherwise the
// replica-known global MarkID (or NoMark for a successor this worker
// cannot resolve — a first sighting, or any successor routing to
// another worker's shards) plus the successor's hash, which candNew
// candidates carry so the coordinator's merge resolves them against
// the authoritative store without re-firing.
func (r *replica) classify(ph uint64, tid int, full bool) (petri.MarkID, uint64, bool) {
	if r.fires.Veto(&r.spec, r.scratch, tid, full) {
		return petri.NoMark, 0, false
	}
	h := r.fires.Hash(ph, tid)
	if !r.ownsHash(h) {
		return petri.NoMark, h, true
	}
	if local, ok := r.store.LookupHashed(r.scratch, h); ok {
		return r.gids[local], h, true
	}
	return petri.NoMark, h, true
}

// freezeCommitted evicts local states that are both already expanded
// (below cursor) and below the just-committed level start — future
// records can only name parents inside the committed level, and
// expansion never revisits a state, so nothing hot-path reads their
// vectors again (dedup probes and candKnown resolution thaw on
// demand). No-op unless the session's init armed the store; a segment
// write failure, reported once, leaves the replica all-hot from there
// on.
func (r *replica) freezeCommitted(start int, cursor petri.MarkID) error {
	floor := sort.Search(len(r.gids), func(i int) bool { return int(r.gids[i]) >= start })
	return r.store.FreezeThrough(min(floor, int(cursor)))
}

// memStats summarizes the replica's memory for the end-of-session
// stats reply. Store accounting derives from the single
// petri.MarkingStore.Mem helper — plus the gids translation table (4
// bytes per owned state) — so this figure, the dist-memory CI gate and
// the server's worker-memory gauge can never silently diverge.
func (r *replica) memStats() WorkerMem {
	sm := r.store.Mem()
	m := WorkerMem{
		States:      r.store.Len(),
		StoreBytes:  sm.HotBytes + int64(len(r.gids))*4,
		BitsBytes:   int64(len(r.bits)) * 8,
		CacheBytes:  int64(r.vcache.bytes()),
		FrozenBytes: sm.FrozenBytes,
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.HeapBytes = int64(ms.HeapAlloc)
	return m
}

// transportError marks a connection-level failure (a recv or send on
// the coordinator link failed). A worker cannot recover from one — the
// session framing is lost — so the serve loop exits the process;
// everything else is session-scoped and survivable.
type transportError struct{ err error }

func (e *transportError) Error() string { return "dist: transport: " + e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

func transportErr(err error) error {
	if err == nil {
		return nil
	}
	return &transportError{err: err}
}

// ServeConn runs the worker side of a coordinator connection: hello,
// then exploration sessions until the coordinator closes the
// connection. It is the body of a spawned worker (MaybeWorker).
//
// Failures are two-tier. A transport failure (the link itself broke)
// ends the serve loop: the process has nothing left to serve. A
// session-scoped failure — a malformed init, a batch that does not
// extend the replica, a coordinator bug — reports one msgError, then
// drains the remainder of the doomed session quietly and keeps serving:
// the worker stays available for the pool's next session instead of
// dying on the first bad one.
func ServeConn(nc net.Conn, logw *logWriter) error {
	c := newConn(nc)
	if err := c.send(msgHello, appendHello(os.Getpid())); err != nil {
		return err
	}
	// draining: a session failed and its msgError went out; skip frames
	// until the next init. The drain is quiet — one report per failure —
	// because nothing guarantees the coordinator is still reading after
	// it learns of the error, and a msgError per stray frame could block
	// the worker on an unbuffered link forever.
	draining := false
	for {
		typ, payload, err := c.recv()
		if err == io.EOF {
			logw.printf("coordinator closed connection; exiting")
			return nil
		}
		if err != nil {
			return err
		}
		if typ != msgInit {
			if !draining {
				draining = true
				workerFail(c, logw, fmt.Errorf("dist: expected init, got message type %d", typ))
			}
			continue
		}
		draining = false
		init, err := decodeInit(payload)
		if err == nil {
			err = serveSession(c, init, logw)
		}
		if err != nil {
			var te *transportError
			if errors.As(err, &te) {
				return err
			}
			draining = true
			workerFail(c, logw, err)
		}
	}
}

// serveSession runs one pipelined exploration. The coordinator
// streams store records (msgRecords) as its merge produces them and
// commits each finished level's id range (msgLevel); the worker expands
// every owned state as soon as it is interned, pinning classification
// at the state's level start (see expandState), and streams the
// candidate bytes back as flow-controlled chunks. Expansion parks when
// the credit window is exhausted and resumes on msgAck; a partial chunk
// is flushed whenever the worker has expanded everything it holds, so
// the coordinator's merge never waits on buffered bytes.
func serveSession(c *conn, init *initMsg, logw *logWriter) error {
	r, err := newReplica(init)
	if err != nil {
		return err
	}
	// Liveness deadlines live for the session only: a coordinator that
	// goes silent mid-session is dead (it would at least ping), but a
	// worker idling between sessions must keep waiting.
	c.readTimeout = workerIdleTimeout
	c.writeTimeout = sendTimeout
	defer c.clearRead()
	defer c.clearWrite()
	shardLo, shardHi := petri.OwnedShardRange(r.index, r.shards, r.workers)
	logw.printf("session start: net %s (%d places, %d transitions), worker %d/%d owning shards [%d,%d) of %d, level [%d,%d), %d states seeded",
		r.net.Name, len(r.net.Places), len(r.net.Transitions), r.index, r.workers,
		shardLo, shardHi, r.shards, init.lo, init.hi, r.store.Len())

	// bounds holds the committed level starts plus, at bounds[len-1],
	// the start of the level records are currently building. Records
	// only ever target that one uncommitted level, so the pin of any
	// expandable state — the largest bound at or below its global id —
	// is already final when the state arrives, whatever the stream
	// timing: that is what keeps the emitted bytes deterministic.
	bounds := []int{init.lo, init.hi}
	pinIdx := 0
	cursor := petri.MarkID(0) // next local store id to expand
	unacked := 0              // chunks in flight, bounded by chunkWindow
	chunks := 0

	var buf []byte
	var recs []petri.VecDelta

	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if err := c.send(msgChunk, buf); err != nil {
			return transportErr(err)
		}
		chunks++
		unacked++
		buf = buf[:0]
		return nil
	}
	pump := func() error {
		for int(cursor) < r.store.Len() {
			if unacked >= chunkWindow {
				return nil // parked; the next ack resumes expansion
			}
			g := int(r.gids[cursor])
			for pinIdx+1 < len(bounds) && g >= bounds[pinIdx+1] {
				pinIdx++
			}
			buf = r.expandState(buf, cursor, petri.MarkID(bounds[pinIdx]))
			cursor++
			if len(buf) >= chunkTarget {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		if unacked < chunkWindow {
			return flush() // caught up: the merge may be blocked on these bytes
		}
		return nil
	}
	if err := pump(); err != nil { // the seeded states are expandable immediately
		return err
	}

	for {
		typ, payload, err := c.recv()
		if err != nil {
			return transportErr(err)
		}
		switch typ {
		case msgDone:
			// Parked or buffered candidates are discarded: done mid-level
			// means the merge aborted (a hook rejected the budget).
			mem := r.memStats()
			logw.printf("session end: %d levels, %d states held (%d frozen), %d chunks, %dB store, %dB frozen, %dB bits, %dB cache",
				len(bounds)-1, mem.States, r.store.FrozenLen(), chunks, mem.StoreBytes, mem.FrozenBytes, mem.BitsBytes, mem.CacheBytes)
			return transportErr(c.send(msgStats, appendStats(nil, mem)))
		case msgPing:
			if err := c.send(msgPong, nil); err != nil {
				return transportErr(err)
			}
		case msgRecords:
			lo := bounds[len(bounds)-1]
			var rest []byte
			recs, rest, err = petri.DecodeVecDeltas(recs[:0], payload)
			if err != nil {
				return err
			}
			if len(rest) != 0 {
				return fmt.Errorf("dist: record batch has %d trailing bytes", len(rest))
			}
			for _, rec := range recs {
				if int(rec.Child) < lo {
					return fmt.Errorf("dist: record child %d below uncommitted level start %d", rec.Child, lo)
				}
				if err := r.applyRec(rec); err != nil {
					return err
				}
			}
			if err := pump(); err != nil {
				return err
			}
		case msgLevel:
			start, end, err := decodeLevel(payload)
			if err != nil {
				return err
			}
			if start != bounds[len(bounds)-1] || end < start {
				return fmt.Errorf("dist: level commit [%d,%d) does not extend bounds at %d", start, end, bounds[len(bounds)-1])
			}
			if n := len(r.gids); n > 0 && int(r.gids[n-1]) >= end {
				return fmt.Errorf("dist: level commit [%d,%d) but record child %d already interned", start, end, r.gids[n-1])
			}
			bounds = append(bounds, end)
			if err := r.freezeCommitted(start, cursor); err != nil {
				logw.printf("%v; the replica continues all-hot", err)
			}
			if err := pump(); err != nil {
				return err
			}
		case msgAck:
			n, _, err := decodeUvarint(payload)
			if err != nil {
				return fmt.Errorf("dist: ack: %w", err)
			}
			if int(n) > unacked {
				return fmt.Errorf("dist: ack for %d chunks with %d in flight", n, unacked)
			}
			unacked -= int(n)
			if err := pump(); err != nil {
				return err
			}
		case msgError:
			return fmt.Errorf("dist: coordinator error: %s", payload)
		default:
			return fmt.Errorf("dist: unexpected message type %d in session", typ)
		}
	}
}

// workerFail logs a session-scoped error and reports it to the
// coordinator. Exactly one msgError goes out per failure — the
// coordinator is guaranteed to still be reading at the moment a session
// first fails, but not afterwards — and the send is best-effort.
func workerFail(c *conn, logw *logWriter, err error) {
	logw.printf("session failed: %v", err)
	_ = c.send(msgError, []byte(err.Error()))
}
