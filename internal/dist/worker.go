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

// WorkerOptions configures a worker's serve loop.
type WorkerOptions struct {
	// DialAttempts caps the initial-dial retries of Serve (cmd/qssd
	// -dial-attempts): 0 retries until the dial budget expires, n > 0
	// gives up after n attempts even with budget left.
	DialAttempts int
}

// replica is one session's worker-side state.
type replica struct {
	net     *petri.Net
	part    []*petri.ECS
	tracker *petri.EnabledTracker
	stride  int
	spec    petri.ExpandSpec
	fires   petri.FiringTable
	store   *petri.MarkingStore
	bits    []uint64
	scratch petri.Marking

	// gids maps the store's dense local ids to the coordinator's global
	// MarkIDs (strictly ascending, so the inverse is a binary search),
	// vcache holds boundary-parent vectors in lockstep with the
	// coordinator, and rootCount is the number of init roots, owned or
	// not — the first level's global-id range.
	gids      []petri.MarkID
	vcache    *vecCache
	rootCount int

	// fwin buffers per-local-state provenance for the store's frozen
	// tier; nil when freezing is off. The init's freeze flag turns the
	// tier on: once the coordinator commits a level, states below it can
	// never again be record parents or expansion sources, so only their
	// hashes and segment offsets stay resident — the per-worker
	// footprint shrinks on top of what trimming already saves.
	fwin *petri.FreezeWindow

	index, workers, shards int
}

// appendProv records the provenance of the local state just interned;
// every intern site must call it exactly once, in intern order.
func (r *replica) appendProv(p petri.FreezeProv) {
	if r.fwin != nil {
		r.fwin.Append(p)
	}
}

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
	r.tracker = petri.NewEnabledTracker(r.net, r.part)
	r.stride = r.tracker.Stride()
	if len(m.spec.Mask) != r.stride {
		return nil, fmt.Errorf("dist: spec mask has %d words, partition needs %d — net round-trip mismatch", len(m.spec.Mask), r.stride)
	}
	if len(m.spec.Caps) != len(r.net.Places) {
		return nil, fmt.Errorf("dist: spec caps cover %d places, net has %d", len(m.spec.Caps), len(r.net.Places))
	}
	r.fires = petri.NewFiringTable(r.net, r.spec)
	r.vcache = newVecCache()
	if m.freeze {
		if err := r.store.EnableFreeze(petri.FreezeConfig{Deltas: r.net.TokenDeltas()}); err == nil {
			r.fwin = &petri.FreezeWindow{}
		}
	}
	r.rootCount = len(m.roots)
	for i, root := range m.roots {
		if len(root) != len(r.net.Places) {
			return nil, fmt.Errorf("dist: root %d has %d places, net has %d", i, len(root), len(r.net.Places))
		}
		h := petri.HashMarking(root)
		if !r.ownsHash(h) {
			continue
		}
		if _, isNew := r.store.InternHashed(root, h); !isNew {
			return nil, fmt.Errorf("dist: duplicate root %d", i)
		}
		r.appendProv(petri.FreezeProv{Parent: petri.NoMark}) // roots: verbatim
		r.gids = append(r.gids, petri.MarkID(i))
		base := len(r.bits)
		r.bits = append(r.bits, make([]uint64, r.stride)...)
		r.tracker.Init(r.bits[base:base+r.stride], root)
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
// shipped or cached vector gets its enabled set from tracker.Init —
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
	r.scratch = pv.FireInto(r.scratch, t)
	h := petri.HashMarking(r.scratch)
	if !r.ownsHash(h) {
		return fmt.Errorf("dist: record child %d routes outside this worker's shards", rec.Child)
	}
	id, isNew := r.store.InternHashed(r.scratch, h)
	if !isNew {
		return fmt.Errorf("dist: record (%d, %s) re-discovers state %d", rec.Parent, t.Name, r.gids[id])
	}
	if n := len(r.gids); n > 0 && r.gids[n-1] >= rec.Child {
		return fmt.Errorf("dist: record child %d not ascending (last %d)", rec.Child, r.gids[n-1])
	}
	// Provenance is in LOCAL ids: a non-owned parent (shipped or cached
	// vector) has none, so the child freezes verbatim.
	r.appendProv(petri.FreezeProv{Parent: parentLocal, Trans: rec.Trans})
	r.gids = append(r.gids, rec.Child)
	base := len(r.bits)
	r.bits = append(r.bits, make([]uint64, r.stride)...)
	if parentLocal != petri.NoMark {
		r.tracker.Update(r.bits[base:base+r.stride],
			r.bits[int(parentLocal)*r.stride:(int(parentLocal)+1)*r.stride], int(rec.Trans), r.store.At(id))
	} else {
		r.tracker.Init(r.bits[base:base+r.stride], r.store.At(id))
	}
	return nil
}

// applyRestore rebuilds a fresh replica from a bulk load (see
// restoreMsg): every shipped state is interned in ascending global id
// order with its enabled set recomputed from scratch (tracker.Init and
// the incremental Update agree bit-for-bit). The replica receives only
// owned states at or past the resume point — the states it may still
// have to expand or route records through; everything older was fully
// merged before the failure and can only come back as a candNew the
// coordinator resolves by hash.
func (r *replica) applyRestore(m *restoreMsg) error {
	if r.store.Len() != 0 || len(r.gids) != 0 {
		return fmt.Errorf("dist: restore into a non-empty replica (%d states)", r.store.Len())
	}
	if len(m.bounds) < 2 || m.bounds[0] != m.resumeFrom {
		return fmt.Errorf("dist: restore bounds %v do not start at resume point %d", m.bounds, m.resumeFrom)
	}
	for i := 1; i < len(m.bounds); i++ {
		if m.bounds[i] < m.bounds[i-1] {
			return fmt.Errorf("dist: restore bounds %v not ascending", m.bounds)
		}
	}
	for i, vec := range m.vecs {
		g := m.gids[i]
		if len(vec) != len(r.net.Places) {
			return fmt.Errorf("dist: restore state %d has %d places, net has %d", g, len(vec), len(r.net.Places))
		}
		h := petri.HashMarking(vec)
		if !r.ownsHash(h) {
			return fmt.Errorf("dist: restore state %d routes outside this worker's shards", g)
		}
		if int(g) < m.resumeFrom {
			return fmt.Errorf("dist: restore state %d below resume point %d", g, m.resumeFrom)
		}
		if n := len(r.gids); n > 0 && r.gids[n-1] >= g {
			return fmt.Errorf("dist: restore state %d not ascending (last %d)", g, r.gids[n-1])
		}
		id, isNew := r.store.InternHashed(vec, h)
		if !isNew {
			return fmt.Errorf("dist: restore re-interns state %d as local %d", g, id)
		}
		r.appendProv(petri.FreezeProv{Parent: petri.NoMark}) // restored: verbatim
		r.gids = append(r.gids, g)
		base := len(r.bits)
		r.bits = append(r.bits, make([]uint64, r.stride)...)
		r.tracker.Init(r.bits[base:base+r.stride], r.store.At(id))
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
// successors by the full cap scan (see petri.FiringTable.Veto).
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
			r.scratch = m.FireInto(r.scratch, r.net.Transitions[tid])
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
	if r.fires.Veto(r.scratch, tid, full) {
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
// demand). No-op unless the session's init armed the store; a
// segment write failure permanently reverts the session to all-hot.
func (r *replica) freezeCommitted(start int, cursor petri.MarkID) {
	if r.fwin == nil {
		return
	}
	floor := sort.Search(len(r.gids), func(i int) bool { return int(r.gids[i]) >= start })
	if int(cursor) < floor {
		floor = int(cursor)
	}
	if err := r.store.FreezeThrough(floor, r.fwin.Prov); err != nil {
		r.fwin = nil
		return
	}
	r.fwin.Drop(r.store.FrozenLen())
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
// connection. It is the body of both spawned workers (MaybeWorker) and
// the standalone cmd/qssd binary.
//
// Failures are two-tier. A transport failure (the link itself broke)
// ends the serve loop: the process has nothing left to serve. A
// session-scoped failure — a malformed init, a batch that does not
// extend the replica, a coordinator bug — reports one msgError, then
// drains the remainder of the doomed session quietly and keeps serving:
// an externally started cmd/qssd worker stays available for the next
// session instead of dying on the first bad one.
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
	// qssd worker idling between sessions must keep waiting.
	c.readTimeout = workerIdleTimeout
	c.writeTimeout = sendTimeout
	defer c.clearRead()
	defer c.clearWrite()
	shardLo, shardHi := petri.OwnedShardRange(r.index, r.shards, r.workers)
	logw.printf("session start: net %s (%d places, %d transitions), worker %d/%d owning shards [%d,%d) of %d, %d roots (%d owned)",
		r.net.Name, len(r.net.Places), len(r.net.Transitions), r.index, r.workers,
		shardLo, shardHi, r.shards, r.rootCount, r.store.Len())

	// bounds holds the committed level starts plus, at bounds[len-1],
	// the start of the level records are currently building. Records
	// only ever target that one uncommitted level, so the pin of any
	// expandable state — the largest bound at or below its global id —
	// is already final when the state arrives, whatever the stream
	// timing: that is what keeps the emitted bytes deterministic.
	bounds := []int{0, r.rootCount}
	pinIdx := 0
	cursor := petri.MarkID(0) // next local store id to expand
	unacked := 0              // chunks in flight, bounded by chunkWindow
	chunks := 0
	virgin := true // no session traffic yet; a restore must come first

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
	if err := pump(); err != nil { // the roots are expandable immediately
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
		case msgRestore:
			if !virgin {
				return fmt.Errorf("dist: restore after session traffic")
			}
			virgin = false
			m, err := decodeRestore(payload)
			if err != nil {
				return err
			}
			if err := r.applyRestore(m); err != nil {
				return err
			}
			bounds = append(bounds[:0], m.bounds...)
			pinIdx = 0
			cursor = 0
			logw.printf("restored %d states (resume at %d, %d bounds)", r.store.Len(), m.resumeFrom, len(m.bounds))
			if err := pump(); err != nil {
				return err
			}
		case msgRecords:
			virgin = false
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
			virgin = false
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
			r.freezeCommitted(start, cursor)
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
