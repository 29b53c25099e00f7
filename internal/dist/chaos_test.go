package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/petri"
)

// Fault-injection tests over net.Pipe pools: heartbeat-based death
// detection, and the in-process chaos matrix asserting byte-identical
// results across {kill mid-level, sever mid-frame, delay/fragment}
// faults. Pipe pools cannot respawn (no listener, no binary), so every
// recovery here exercises the shard-redistribution path; process
// respawn is covered by the spawned chaos test in package dist_test.

// chaosSeed parameterizes the fault points; CI pins the default, the
// nightly sweep randomizes it via QSS_CHAOS_SEED.
func chaosSeed() int64 {
	if s := os.Getenv("QSS_CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return 1
}

// chaosPool is pipePoolWrapped without the clean-exit assertion: chaos
// workers are expected to die with transport errors. wrap, when set,
// interposes on worker i's conn (the shim sees the worker's writes).
// The worker-side pipe ends are retained so kill-style faults can
// sever a live link from the "worker died" direction.
type chaosPool struct {
	*Pool
	wconns []net.Conn
}

func newChaosPool(t *testing.T, n int, wrap func(i int, c net.Conn) net.Conn) *chaosPool {
	t.Helper()
	cp := &chaosPool{Pool: &Pool{logw: newLogWriter("coord")}}
	for i := 0; i < n; i++ {
		cs, ws := net.Pipe()
		wc := net.Conn(ws)
		if wrap != nil {
			if w := wrap(i, ws); w != nil {
				wc = w
			}
		}
		errc := make(chan error, 1)
		go func() { errc <- ServeConn(wc, newLogWriter("worker")) }()
		if _, err := addPipeWorker(cp.Pool, cs); err != nil {
			t.Fatal(err)
		}
		cp.wconns = append(cp.wconns, ws)
		t.Cleanup(func() {
			cs.Close()
			ws.Close()
			<-errc // exit error (if any) is the fault under test
		})
	}
	return cp
}

// TestHelloPidRoundTrip: the hello's trailing pid — the SpawnLocal
// conn-to-process mapping that kill/respawn depends on — survives the
// wire.
func TestHelloPidRoundTrip(t *testing.T) {
	for _, want := range []int{12345, 1, 0} {
		cs, ws := net.Pipe()
		go newConn(ws).send(msgHello, appendHello(want))
		p := &Pool{}
		pid, err := addPipeWorker(p, cs)
		cs.Close()
		ws.Close()
		if err != nil {
			t.Fatalf("pid %d: %v", want, err)
		}
		if pid != want {
			t.Fatalf("pid %d came back as %d", want, pid)
		}
	}
}

// TestHelloVersionMismatch: there is no version negotiation. A worker
// built from an older tree — a protocol-4 hello: magic, version,
// capability flags, pid — is refused at handshake by the listener and
// the pipe-pool handshake alike, with an error naming both versions,
// and never joins the pool.
func TestHelloVersionMismatch(t *testing.T) {
	v4 := binary.AppendUvarint([]byte(protoMagic), 4)
	v4 = binary.AppendUvarint(v4, 0)    // capability flags
	v4 = binary.AppendUvarint(v4, 4242) // pid
	refused := func(label string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: protocol-4 hello accepted", label)
		}
		msg := err.Error()
		if !strings.Contains(msg, "version 4") || !strings.Contains(msg, fmt.Sprintf("speaks %d", protoVersion)) {
			t.Fatalf("%s: error does not name versions 4 and %d: %v", label, protoVersion, err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		defer nc.Close()
		newConn(nc).send(msgHello, v4)
		io.Copy(io.Discard, nc) // until the coordinator hangs up
	}()
	_, _, err = acceptOne(ln, 10*time.Second)
	refused("acceptOne", err)
	<-done

	p := &Pool{}
	cs, ws := net.Pipe()
	defer cs.Close()
	defer ws.Close()
	go newConn(ws).send(msgHello, v4)
	_, err = addPipeWorker(p, cs)
	refused("pipe handshake", err)
	if len(p.workers) != 0 {
		t.Fatalf("refused worker joined the pool (%d workers)", len(p.workers))
	}
}

// TestHeartbeatTimeout: a worker that stops reading its results but
// keeps the connection open — the classic silent hang — must be
// declared dead within the configured heartbeat interval, not block
// the session forever. The stand-in worker completes the handshake,
// then reads and discards every frame (so coordinator writes succeed)
// without ever replying; only the heartbeat timer can unmask it.
func TestHeartbeatTimeout(t *testing.T) {
	oldInt, oldTO := heartbeatInterval, heartbeatTimeout
	heartbeatInterval, heartbeatTimeout = 20*time.Millisecond, 200*time.Millisecond
	defer func() { heartbeatInterval, heartbeatTimeout = oldInt, oldTO }()

	cs, ws := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c := newConn(ws)
		if err := c.send(msgHello, appendHello(os.Getpid())); err != nil {
			return
		}
		for {
			if _, _, err := c.recv(); err != nil {
				return
			}
		}
	}()
	p := &Pool{logw: newLogWriter("coord")}
	if _, err := addPipeWorker(p, cs); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close(); ws.Close(); <-done })

	n := ringNet(2, 4)
	begin := time.Now()
	_, err := n.ExploreDist(p, petri.ExploreOptions{MaxMarkings: 1000})
	elapsed := time.Since(begin)
	if err == nil {
		t.Fatal("session against a silent worker succeeded")
	}
	if !strings.Contains(err.Error(), "heartbeat") {
		t.Fatalf("error does not name the heartbeat timeout: %v", err)
	}
	// Detection plus the (futile, single-worker) recovery round must
	// land within a small multiple of the timeout, not a scheduler-
	// dependent eternity.
	if limit := 10 * heartbeatTimeout; elapsed > limit {
		t.Fatalf("silent worker unmasked after %v, want under %v", elapsed, limit)
	}
	if !p.LastSessionStats().Degraded {
		t.Fatal("stats do not report the degraded session")
	}
}

// TestChaosPipeMatrix: the chaos determinism matrix over pipe pools.
// For worker counts {1, 2, 4} and faults {kill a worker mid-level,
// sever its conn mid-frame, delay+fragment every write}, exploration
// through the pool yields results byte-identical to the serial run
// whenever recovery is possible. When it is not — the only worker died
// and a pipe pool cannot respawn — ExploreDist returns the recovery
// error and the session reports Degraded: nothing reruns it inline.
func TestChaosPipeMatrix(t *testing.T) {
	seed := chaosSeed()
	n := ringNet(3, 5)
	opt := petri.ExploreOptions{MaxMarkings: 2000}
	want := n.Explore(opt)

	for _, W := range []int{1, 2, 4} {
		for _, mode := range []string{"kill", "sever", "delay"} {
			t.Run(mode+"-"+strconv.Itoa(W), func(t *testing.T) {
				var cp *chaosPool
				switch mode {
				case "kill":
					cp = newChaosPool(t, W, nil)
					// Close the victim's transport from the worker side
					// at the first level commit — a worker crash while
					// the next frontier is in flight.
					victim := int(seed) % W
					if victim < 0 {
						victim = -victim
					}
					var once sync.Once
					cp.SetLevelHook(func(level int) {
						once.Do(func() { cp.wconns[victim].Close() })
					})
				case "sever":
					// Cut one worker's write stream a seeded few hundred
					// bytes in — mid-frame with near certainty — so the
					// coordinator sees a truncated frame then EOF.
					cp = newChaosPool(t, W, func(i int, c net.Conn) net.Conn {
						if i != 0 {
							return nil
						}
						return newChaosConn(c, chaosOpts{seed: seed, severAt: 64 + seed%128 + int64(W)})
					})
				case "delay":
					// Latency and fragmentation on every link, no fault:
					// the session must absorb it without false deaths.
					cp = newChaosPool(t, W, func(i int, c net.Conn) net.Conn {
						return newChaosConn(c, chaosOpts{seed: seed + int64(i), delay: 2 * time.Millisecond})
					})
				}
				got, err := n.ExploreDist(cp.Pool, opt)
				st := cp.LastSessionStats()
				if mode != "delay" && W == 1 {
					// The only worker died and pipes cannot respawn:
					// the session fails, degraded, with no result.
					if err == nil || got != nil || !st.Degraded {
						t.Fatalf("single-worker %s: got %v, %v, %+v; want the recovery error and Degraded", mode, got, err, st)
					}
					return
				}
				if err != nil {
					t.Fatalf("ExploreDist under %s: %v", mode, err)
				}
				requireSameReach(t, mode, want, got)
				switch {
				case mode == "delay":
					if st.Restarts != 0 || st.Degraded {
						t.Fatalf("delay-only session reported recovery: %+v", st)
					}
				default:
					if st.Restarts < 1 {
						t.Fatalf("%s with %d workers recovered without a restart round: %+v", mode, W, st)
					}
					if st.Redistributed < 1 {
						t.Fatalf("%s with %d workers redistributed no shards: %+v", mode, W, st)
					}
					if st.Degraded {
						t.Fatalf("%s with %d workers should recover, not degrade: %+v", mode, W, st)
					}
				}
			})
		}
	}
}

// Fault injection for the failover tests. chaosConn wraps a net.Conn
// with seeded, reproducible faults on the write path: per-write jitter
// delays, fragmented writes, and a hard sever after a configured byte
// budget. Severing truncates the in-flight frame and then closes the
// transport — the framing layer has no checksum, so "corrupt/drop a
// frame" and "sever mid-frame" are the same observable fault: the peer
// sees a short or impossible frame followed by EOF and declares the
// link dead. Read-side behaviour (deadlines, blocking) passes through
// the embedded Conn untouched so the heartbeat machinery under test
// sees real transport semantics.
type chaosConn struct {
	net.Conn // deadlines, reads and addrs pass through

	mu      sync.Mutex
	rng     *rand.Rand
	delay   time.Duration // max extra latency injected per write
	severAt int64         // byte budget; <= 0 means never sever
	written int64
	severed bool
}

// chaosOpts configures one chaosConn. The zero value injects nothing.
type chaosOpts struct {
	seed    int64         // rng seed; faults are deterministic per seed
	delay   time.Duration // up to this much extra latency per write
	severAt int64         // sever the conn after this many bytes written
}

func newChaosConn(c net.Conn, o chaosOpts) *chaosConn {
	return &chaosConn{Conn: c, rng: rand.New(rand.NewSource(o.seed)), delay: o.delay, severAt: o.severAt}
}

// Write delivers b through the wrapped conn in randomly sized
// fragments with seeded delays, stopping — truncating mid-frame — and
// closing the transport once the sever budget is spent.
func (c *chaosConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.severed {
		return 0, fmt.Errorf("chaos: conn severed after %d bytes", c.written)
	}
	done := 0
	for done < len(b) {
		if c.delay > 0 {
			time.Sleep(time.Duration(c.rng.Int63n(int64(c.delay))))
		}
		frag := b[done:]
		// Fragment roughly half the writes so frames routinely arrive
		// split across multiple reads on the far side.
		if len(frag) > 1 && c.rng.Intn(2) == 0 {
			frag = frag[:1+c.rng.Intn(len(frag))]
		}
		if c.severAt > 0 && c.written+int64(len(frag)) > c.severAt {
			frag = frag[:c.severAt-c.written]
			n, _ := c.Conn.Write(frag)
			c.written += int64(n)
			c.severed = true
			c.Conn.Close()
			return done + n, fmt.Errorf("chaos: conn severed after %d bytes", c.written)
		}
		n, err := c.Conn.Write(frag)
		done += n
		c.written += int64(n)
		if err != nil {
			return done, err
		}
	}
	return done, nil
}
