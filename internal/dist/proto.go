package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/petri"
)

// Length-prefixed binary framing. Every message is a 4-byte
// little-endian payload length, a 1-byte type, and the payload —
// varint-encoded via the petri wire helpers. The session is pipelined:
// the coordinator streams record batches and level commits while
// workers stream candidate chunks back, with a credit window (msgAck)
// bounding the chunks in flight — the coordinator's per-connection
// reader goroutine plus that window is what keeps both directions
// draining and rules out write-write deadlock.

const (
	protoMagic = "qssd"
	// protoVersion is the one wire protocol both sides speak; a hello
	// naming any other version is refused, there is no negotiation.
	// Candidate streams travel as flow-controlled chunks
	// (msgChunk/msgAck), store records stream during the previous
	// level's merge (msgRecords) with an explicit level commit
	// (msgLevel), and every candNew candidate carries the successor's
	// 64-bit hash so the coordinator classifies without re-firing.
	// Liveness is probed with msgPing/msgPong and read/write deadlines,
	// and a session survives worker death: the coordinator re-inits the
	// pool and resumes the merge at the last committed level. The init
	// is the one message that seeds a replica: it carries the bounds of
	// the level the worker starts in and only the worker's owned
	// (global id, vector) pairs — the roots of a fresh session, or the
	// states from the replayed level on after a failover.
	// candNew hashes and shard routing use petri.HashMarking, so a
	// change of that hash is a protocol change too. Bump it with any
	// change to a frame layout or to the hash.
	protoVersion = 9
	// maxFrame bounds a single message payload; the init that reseeds a
	// replica after a failover is the largest message and stays far
	// below this for any exploration that fits in memory.
	maxFrame = 1 << 30
)

// Message types.
const (
	msgHello   byte = 1  // worker -> coordinator, on connect
	msgInit    byte = 2  // coordinator -> worker, session start; alone seeds the replica
	msgDone    byte = 5  // coordinator -> worker, session end
	msgStats   byte = 7  // worker -> coordinator, reply to done
	msgError   byte = 6  // either direction, carries a message string
	msgRecords byte = 8  // coordinator -> worker, store records of the level being built (streamed mid-merge)
	msgLevel   byte = 9  // coordinator -> worker, commits the recorded level's [start, end) id range
	msgAck     byte = 10 // coordinator -> worker, returns chunk credits consumed by the merge
	msgChunk   byte = 11 // worker -> coordinator, a slice of the candidate stream
	msgPing    byte = 12 // coordinator -> worker, liveness probe while awaiting a frame
	msgPong    byte = 13 // worker -> coordinator, reply to ping
)

// Pipelining parameters. Both sides hard-code them: the worker enforces
// the chunk target and window on its sends, the coordinator sizes its
// per-connection reader channel so a conforming worker's frames never
// block the reader.
const (
	// chunkTarget is the worker-side flush threshold for candidate
	// chunks. A worker also flushes a smaller partial chunk whenever it
	// has expanded everything it holds, so the coordinator's merge is
	// never left waiting on buffered bytes.
	chunkTarget = 16 << 10
	// chunkWindow is the credit window: a worker may have at most this
	// many unacknowledged chunks in flight and parks its expansion
	// cursor (while continuing to read) when the window is exhausted.
	chunkWindow = 8
	// recordFlush is the coordinator-side record-batch flush threshold,
	// in records: the pipelining grain at which workers may start
	// expanding their slice of level L+1 while the coordinator is still
	// merging the tail of L.
	recordFlush = 256
)

// Liveness parameters. Vars, not consts, so the failover tests can
// shrink them to milliseconds; production sessions run the defaults.
// Liveness means "the peer still answers", not "the peer makes
// progress": any received frame (a pong included) resets the
// coordinator's patience, so a worker legitimately grinding through a
// huge level is never declared dead as long as its serve loop drains
// pings between pumps.
var (
	// heartbeatInterval is how often the coordinator pings the one
	// worker whose frame the merge is currently awaiting.
	heartbeatInterval = 1 * time.Second
	// heartbeatTimeout declares the awaited worker dead when no frame
	// at all (chunk, pong, stats, error) arrives within it.
	heartbeatTimeout = 20 * time.Second
	// sendTimeout is the per-message write deadline within a session:
	// a peer that stopped reading (socket buffer full) fails the send
	// instead of blocking the session forever.
	sendTimeout = 60 * time.Second
	// workerIdleTimeout is the worker-side read deadline within a
	// session — generous, because a coordinator merging a
	// huge level may legitimately go quiet toward a parked worker. It
	// is cleared at session end so an idle worker survives
	// arbitrarily long gaps between sessions.
	workerIdleTimeout = 10 * time.Minute
)

// Candidate tags within a result stream.
const (
	candVeto  = 0 // successor beyond the spec caps
	candKnown = 1 // successor already interned in the replica
	candNew   = 2 // successor unknown to the replica; coordinator resolves by its hash
)

// deadliner is the subset of net.Conn the liveness layer needs;
// in-memory test transports without deadline support simply run
// without deadlines.
type deadliner interface {
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// conn wraps a net.Conn with buffered framing and traffic accounting.
// readTimeout/writeTimeout, when non-zero, arm a per-operation deadline
// before every recv/send on transports that support deadlines. A worker
// sets both for the length of a session only, so an idle connection
// between sessions stays deadline-free.
type conn struct {
	rw           io.ReadWriteCloser
	br           *bufio.Reader
	bw           *bufio.Writer
	d            deadliner // nil when rw has no deadline support
	readTimeout  time.Duration
	writeTimeout time.Duration
	// Byte counters are atomic: the session goroutine reads them for
	// per-attempt accounting while a (possibly dying) link reader
	// goroutine is still receiving on the same conn.
	sent     atomic.Int64
	received atomic.Int64
	scratch  []byte
}

func newConn(rw io.ReadWriteCloser) *conn {
	c := &conn{rw: rw, br: bufio.NewReaderSize(rw, 1<<16), bw: bufio.NewWriterSize(rw, 1<<16)}
	c.d, _ = rw.(deadliner)
	return c
}

func (c *conn) close() error { return c.rw.Close() }

// armRead arms (or, with timeout 0, clears) the read deadline ahead of
// a blocking read.
func (c *conn) armRead() {
	if c.d != nil && c.readTimeout != 0 {
		c.d.SetReadDeadline(time.Now().Add(c.readTimeout))
	}
}

// clearRead drops any armed read deadline — called when a session ends
// so the next (possibly distant) session start is not cut off.
func (c *conn) clearRead() {
	c.readTimeout = 0
	if c.d != nil {
		c.d.SetReadDeadline(time.Time{})
	}
}

func (c *conn) armWrite() {
	if c.d != nil && c.writeTimeout != 0 {
		c.d.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
}

// clearWrite drops any armed write deadline at session end, so a stale
// absolute deadline cannot fail a write between sessions.
func (c *conn) clearWrite() {
	c.writeTimeout = 0
	if c.d != nil {
		c.d.SetWriteDeadline(time.Time{})
	}
}

// send frames and flushes one message.
func (c *conn) send(typ byte, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("dist: message type %d payload %d exceeds frame limit", typ, len(payload))
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	c.armWrite()
	if _, err := c.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := c.bw.Write(payload); err != nil {
		return err
	}
	c.sent.Add(int64(len(hdr)) + int64(len(payload)))
	return c.bw.Flush()
}

// recv reads one message into the connection's scratch buffer; the
// returned payload is valid until the next recv.
func (c *conn) recv() (byte, []byte, error) {
	var hdr [5]byte
	c.armRead()
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("dist: frame length %d exceeds limit", n)
	}
	if cap(c.scratch) < int(n) {
		c.scratch = make([]byte, n)
	}
	c.scratch = c.scratch[:n]
	if _, err := io.ReadFull(c.br, c.scratch); err != nil {
		return 0, nil, err
	}
	c.received.Add(int64(len(hdr)) + int64(n))
	return hdr[4], c.scratch, nil
}

// recvAlloc is recv into a fresh buffer — for the coordinator's
// per-connection reader goroutines, whose frames are queued and must
// outlive the next read.
func (c *conn) recvAlloc() (byte, []byte, error) {
	var hdr [5]byte
	c.armRead()
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("dist: frame length %d exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return 0, nil, err
	}
	c.received.Add(int64(len(hdr)) + int64(n))
	return hdr[4], payload, nil
}

// expect receives one message and requires the given type; a msgError
// from the peer is surfaced as its carried error.
func (c *conn) expect(typ byte) ([]byte, error) {
	got, payload, err := c.recv()
	if err != nil {
		return nil, err
	}
	if got == msgError {
		return nil, fmt.Errorf("dist: peer error: %s", payload)
	}
	if got != typ {
		return nil, fmt.Errorf("dist: unexpected message type %d (want %d)", got, typ)
	}
	return payload, nil
}

// appendHello encodes a worker's greeting: magic, protocol version, and
// the worker's pid, which lets a SpawnLocal pool map each accepted
// connection to the process behind it — the bookkeeping worker-kill
// fault injection and respawn recovery depend on.
func appendHello(pid int) []byte {
	payload := binary.AppendUvarint([]byte(protoMagic), protoVersion)
	return binary.AppendUvarint(payload, uint64(pid))
}

// checkHello validates a worker's hello and returns its pid. A worker
// built from another tree speaks another version and is refused here,
// before any session traffic.
func checkHello(payload []byte) (pid int, err error) {
	if len(payload) < len(protoMagic) || string(payload[:len(protoMagic)]) != protoMagic {
		return 0, fmt.Errorf("dist: bad hello magic")
	}
	v, buf, err := decodeUvarint(payload[len(protoMagic):])
	if err != nil {
		return 0, fmt.Errorf("dist: hello version: %w", err)
	}
	if v != protoVersion {
		return 0, fmt.Errorf("dist: worker speaks protocol version %d, coordinator speaks %d", v, protoVersion)
	}
	p, buf, err := decodeUvarint(buf)
	if err != nil {
		return 0, fmt.Errorf("dist: hello pid: %w", err)
	}
	if len(buf) != 0 {
		return 0, fmt.Errorf("dist: hello has %d trailing bytes", len(buf))
	}
	return int(p), nil
}

// initMsg is the decoded session-start payload, and all a replica is
// seeded with. [lo, hi) is the level the worker starts in: the roots
// of a fresh session, or the level a failover replays. gids and vecs
// are the worker's owned states from lo on, in ascending global id
// order; after a failover they run past hi into the states the
// interrupted merge had already interned.
type initMsg struct {
	index, workers, shards int
	lo, hi                 int
	net                    *petri.Net
	spec                   petri.ExpandSpec
	gids                   []petri.MarkID
	vecs                   []petri.Marking
}

func appendInit(dst []byte, m *initMsg) []byte {
	for _, v := range []uint64{uint64(m.index), uint64(m.workers), uint64(m.shards), uint64(m.lo), uint64(m.hi)} {
		dst = binary.AppendUvarint(dst, v)
	}
	dst = petri.AppendNet(dst, m.net)
	dst = binary.AppendUvarint(dst, uint64(len(m.spec.Mask)))
	for _, w := range m.spec.Mask {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.spec.Caps)))
	for _, cp := range m.spec.Caps {
		// Caps are >= -1; shift by one so "unbounded" encodes as 0.
		dst = binary.AppendUvarint(dst, uint64(cp+1))
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.gids)))
	for i, g := range m.gids {
		dst = binary.AppendUvarint(dst, uint64(g))
		dst = petri.AppendMarking(dst, m.vecs[i])
	}
	return dst
}

func decodeInit(buf []byte) (*initMsg, error) {
	m := &initMsg{}
	var err error
	u := func() uint64 {
		var v uint64
		if err == nil {
			v, buf, err = decodeUvarint(buf)
		}
		return v
	}
	m.index, m.workers, m.shards = int(u()), int(u()), int(u())
	m.lo, m.hi = int(u()), int(u())
	if err != nil {
		return nil, fmt.Errorf("dist: init header: %w", err)
	}
	if m.workers < 1 || m.index < 0 || m.index >= m.workers || m.shards < 1 || m.lo < 0 || m.lo > m.hi {
		return nil, fmt.Errorf("dist: init header out of range (index %d, workers %d, shards %d, level [%d,%d))", m.index, m.workers, m.shards, m.lo, m.hi)
	}
	m.net, buf, err = petri.DecodeNet(buf)
	if err != nil {
		return nil, err
	}
	nm := u()
	// Divide rather than multiply: nm*8 wraps for nm >= 2^61.
	if err == nil && nm > uint64(len(buf))/8 {
		err = fmt.Errorf("mask length %d exceeds payload", nm)
	}
	if err != nil {
		return nil, fmt.Errorf("dist: init mask: %w", err)
	}
	m.spec.Mask = make([]uint64, nm)
	for i := range m.spec.Mask {
		m.spec.Mask[i] = binary.LittleEndian.Uint64(buf[:8])
		buf = buf[8:]
	}
	nc := u()
	if err == nil && nc > uint64(len(buf)) {
		err = fmt.Errorf("caps length %d exceeds payload", nc)
	}
	if err != nil {
		return nil, fmt.Errorf("dist: init caps: %w", err)
	}
	m.spec.Caps = make([]int, nc)
	for i := range m.spec.Caps {
		m.spec.Caps[i] = int(u()) - 1
	}
	ns := u()
	if err == nil && ns > uint64(len(buf)) {
		err = fmt.Errorf("state count %d exceeds payload", ns)
	}
	if err != nil {
		return nil, fmt.Errorf("dist: init states: %w", err)
	}
	for i := uint64(0); i < ns; i++ {
		g := u()
		if err == nil && g >= uint64(petri.NoMark) {
			err = fmt.Errorf("id %d out of range", g)
		}
		if err != nil {
			return nil, fmt.Errorf("dist: init state %d: %w", i, err)
		}
		var vec petri.Marking
		vec, buf, err = petri.DecodeMarking(buf)
		if err != nil {
			return nil, fmt.Errorf("dist: init state %d: %w", i, err)
		}
		m.gids = append(m.gids, petri.MarkID(g))
		m.vecs = append(m.vecs, vec)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("dist: init payload has %d trailing bytes", len(buf))
	}
	return m, nil
}

// Session payload helpers. msgRecords carries a bare
// petri.AppendVecDeltas record batch (children named by global id);
// msgChunk carries raw candidate-stream bytes, cut only at state-group
// boundaries; msgLevel commits the [start, end) global-id range of the
// level whose records finished streaming; msgAck returns consumed chunk
// credits.

func appendLevel(dst []byte, start, end int) []byte {
	dst = binary.AppendUvarint(dst, uint64(start))
	return binary.AppendUvarint(dst, uint64(end))
}

func decodeLevel(buf []byte) (start, end int, err error) {
	s, buf, err := decodeUvarint(buf)
	if err != nil {
		return 0, 0, fmt.Errorf("dist: level start: %w", err)
	}
	e, buf, err := decodeUvarint(buf)
	if err != nil {
		return 0, 0, fmt.Errorf("dist: level end: %w", err)
	}
	if len(buf) != 0 {
		return 0, 0, fmt.Errorf("dist: level commit has %d trailing bytes", len(buf))
	}
	return int(s), int(e), nil
}

// WorkerMem is one worker's end-of-session replica accounting, shipped
// in the msgStats reply to done. Store, bits and cache bytes are exact
// live counts — pure functions of the interned sequence, comparable
// across processes and machines — which is what lets CI gate per-worker
// replica memory with strict byte ratios. HeapBytes is the Go
// runtime's live-heap figure at session end: machine-dependent,
// informational only.
type WorkerMem struct {
	States     int   // markings held in the worker's store
	StoreBytes int64 // hot store bytes (MarkingStore.Mem().HotBytes) + the local->global id table (4B per held state)
	BitsBytes  int64 // enabled-set arena (len * 8)
	CacheBytes int64 // boundary-parent vector cache payload
	HeapBytes  int64 // runtime.MemStats.HeapAlloc (informational)
}

func appendStats(dst []byte, m WorkerMem) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.States))
	dst = binary.AppendUvarint(dst, uint64(m.StoreBytes))
	dst = binary.AppendUvarint(dst, uint64(m.BitsBytes))
	dst = binary.AppendUvarint(dst, uint64(m.CacheBytes))
	dst = binary.AppendUvarint(dst, uint64(m.HeapBytes))
	return dst
}

func decodeStats(buf []byte) (WorkerMem, error) {
	var m WorkerMem
	var err error
	u := func() uint64 {
		var v uint64
		if err == nil {
			v, buf, err = decodeUvarint(buf)
		}
		return v
	}
	m.States = int(u())
	m.StoreBytes = int64(u())
	m.BitsBytes = int64(u())
	m.CacheBytes = int64(u())
	m.HeapBytes = int64(u())
	if err != nil {
		return WorkerMem{}, fmt.Errorf("dist: stats: %w", err)
	}
	if len(buf) != 0 {
		return WorkerMem{}, fmt.Errorf("dist: stats have %d trailing bytes", len(buf))
	}
	return m, nil
}

func decodeUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated or overlong varint")
	}
	return v, buf[n:], nil
}

// logWriter is the shared, optionally file-backed logger: when
// QSS_DIST_LOGDIR is set, each process writes its own
// <role>-<pid>.log there (the CI determinism job uploads the directory
// on failure); otherwise output is discarded (a spawned worker's stderr
// is its coordinator's). File-backed logs
// are size-capped: a long test run (the determinism matrix reuses pids
// across hundreds of sessions) rotates <name>.log to <name>.log.1 at
// logFileCap bytes instead of growing without bound, keeping at most
// two generations per process.
type logWriter struct {
	l *log.Logger
}

// logFileCap is the per-generation size cap of a file-backed dist log.
const logFileCap = 4 << 20

// rotatingFile is an io.Writer appending to path until the current
// generation exceeds logFileCap, then renaming it to path+".1"
// (replacing the previous rollover) and starting fresh. One process
// may hold many logWriters on the same path (every in-process pipe
// worker and coordinator shares the pid), so instances are deduped per
// path (see logFileFor) and Write carries its own mutex: the cap and
// the rollover are per FILE, not per handle.
type rotatingFile struct {
	mu   sync.Mutex
	path string
	f    *os.File
	n    int64
}

// logFiles dedupes rotatingFile instances per path within the process.
var logFiles sync.Map // path -> *rotatingFile

func logFileFor(path string) (*rotatingFile, error) {
	if r, ok := logFiles.Load(path); ok {
		return r.(*rotatingFile), nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	r := &rotatingFile{path: path, f: f}
	if st, err := f.Stat(); err == nil {
		r.n = st.Size()
	}
	if prev, loaded := logFiles.LoadOrStore(path, r); loaded {
		f.Close()
		return prev.(*rotatingFile), nil
	}
	return r, nil
}

func (r *rotatingFile) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n+int64(len(p)) > logFileCap {
		r.f.Close()
		os.Rename(r.path, r.path+".1")
		f, err := os.OpenFile(r.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return 0, err
		}
		r.f, r.n = f, 0
	}
	n, err := r.f.Write(p)
	r.n += int64(n)
	return n, err
}

func newLogWriter(role string) *logWriter {
	w := io.Writer(io.Discard)
	if dir := os.Getenv(EnvLogDir); dir != "" {
		f, err := logFileFor(filepath.Join(dir, fmt.Sprintf("%s-%d.log", role, os.Getpid())))
		if err == nil {
			w = f
		}
	}
	return &logWriter{l: log.New(w, fmt.Sprintf("dist %s %d: ", role, os.Getpid()), log.LstdFlags|log.Lmicroseconds)}
}

func (lw *logWriter) printf(format string, args ...any) {
	if lw != nil && lw.l != nil {
		lw.l.Printf(format, args...)
	}
}
