package dist

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"

	"repro/internal/petri"
)

// pipePool builds a Pool whose "workers" are goroutines on the other
// end of net.Pipe connections — the full protocol stack (framing,
// encoding, replica, merge) without process spawning, so the unit tests
// stay fast and debuggable. Process-level coverage lives in the
// determinism matrix tests (package dist_test).
func pipePool(t *testing.T, n int) *Pool {
	t.Helper()
	return pipePoolWrapped(t, n, nil)
}

// pipePoolWrapped is pipePool with a worker-side conn wrapper (latency
// injection); wrap may return nil to leave worker i's conn alone. Every
// worker must exit cleanly when the test closes its pipe.
func pipePoolWrapped(t *testing.T, n int, wrap func(i int, c net.Conn) net.Conn) *Pool {
	t.Helper()
	p := &Pool{logw: newLogWriter("coord")}
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
		if _, err := addPipeWorker(p, cs); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cs.Close()
			if err := <-errc; err != nil {
				t.Errorf("pipe worker exited: %v", err)
			}
		})
	}
	return p
}

// addPipeWorker runs the coordinator side of the hello handshake on cs
// and adds the connection to p, returning the worker's pid.
func addPipeWorker(p *Pool, cs net.Conn) (pid int, err error) {
	c := newConn(cs)
	payload, err := c.expect(msgHello)
	if err == nil {
		pid, err = checkHello(payload)
	}
	if err != nil {
		return 0, fmt.Errorf("pipe worker %d handshake: %w", len(p.workers), err)
	}
	p.workers = append(p.workers, c)
	return pid, nil
}

// ringNet builds `pipes` independent token rings of `stages` places
// whose reachable space is the full product of ring positions — the
// same family as the exploration benchmarks.
func ringNet(pipes, stages int) *petri.Net {
	n := petri.New(fmt.Sprintf("ring-%dx%d", pipes, stages))
	for p := 0; p < pipes; p++ {
		fuel := n.AddPlace(fmt.Sprintf("fuel%d", p), petri.PlaceChannel, 1)
		var ps []*petri.Place
		for s := 0; s < stages; s++ {
			init := 0
			if s == 0 {
				init = 1
			}
			ps = append(ps, n.AddPlace(fmt.Sprintf("r%d_%d", p, s), petri.PlaceInternal, init))
		}
		for s := 0; s < stages; s++ {
			t := n.AddTransition(fmt.Sprintf("t%d_%d", p, s), petri.TransNormal)
			n.AddArc(ps[s], t, 1)
			n.AddArcTP(t, ps[(s+1)%stages], 1)
			n.AddSelfLoop(fuel, t, 1)
		}
	}
	return n
}

// sourceNet is a small net with an uncontrollable source so the
// FireSources and MaxTokensPerPlace paths get exercised.
func sourceNet() *petri.Net {
	n := petri.New("src")
	p1 := n.AddPlace("p1", petri.PlaceChannel, 0)
	p2 := n.AddPlace("p2", petri.PlaceChannel, 0)
	a := n.AddTransition("a", petri.TransSourceUnc)
	b := n.AddTransition("b", petri.TransNormal)
	c := n.AddTransition("c", petri.TransNormal)
	n.AddArcTP(a, p1, 1)
	n.AddArc(p1, b, 2)
	n.AddArcTP(b, p2, 1)
	n.AddArc(p2, c, 1)
	return n
}

// requireSameReach asserts two ReachResults are byte-identical:
// identical marking numbering, edges and clip flags.
func requireSameReach(t *testing.T, label string, want, got *petri.ReachResult) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: %d states, want %d", label, got.Len(), want.Len())
	}
	if want.Truncated != got.Truncated {
		t.Fatalf("%s: truncated %v, want %v", label, got.Truncated, want.Truncated)
	}
	for id := 0; id < want.Len(); id++ {
		if !want.MarkingAt(petri.MarkID(id)).Equal(got.MarkingAt(petri.MarkID(id))) {
			t.Fatalf("%s: marking %d differs: %v vs %v", label, id,
				got.MarkingAt(petri.MarkID(id)), want.MarkingAt(petri.MarkID(id)))
		}
		if want.Clipped[id] != got.Clipped[id] {
			t.Fatalf("%s: clipped[%d] = %v, want %v", label, id, got.Clipped[id], want.Clipped[id])
		}
		we, ge := want.Edges[id], got.Edges[id]
		if len(we) != len(ge) {
			t.Fatalf("%s: state %d has %d edges, want %d", label, id, len(ge), len(we))
		}
		for k := range we {
			if we[k] != ge[k] {
				t.Fatalf("%s: state %d edge %d = %+v, want %+v", label, id, k, ge[k], we[k])
			}
		}
	}
}

// TestExploreDistPipe: distributed exploration over 1..4 pipe workers
// reproduces the serial ReachResult byte-for-byte on a product-space
// net, with and without source firing and truncation, and the workers'
// trimmed replicas partition the state space.
func TestExploreDistPipe(t *testing.T) {
	cases := []struct {
		name string
		net  *petri.Net
		opt  petri.ExploreOptions
	}{
		{"ring-3x4", ringNet(3, 4), petri.ExploreOptions{MaxMarkings: 100}},
		{"ring-2x5-exhaustive", ringNet(2, 5), petri.ExploreOptions{MaxMarkings: 1000}},
		{"source-capped", sourceNet(), petri.ExploreOptions{MaxMarkings: 500, MaxTokensPerPlace: 4, FireSources: true}},
		{"source-budget", sourceNet(), petri.ExploreOptions{MaxMarkings: 7, MaxTokensPerPlace: 6, FireSources: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.net.Explore(tc.opt)
			for _, workers := range []int{1, 2, 4} {
				p := pipePool(t, workers)
				got, err := tc.net.ExploreDist(p, tc.opt)
				if err != nil {
					t.Fatalf("ExploreDist(%d workers): %v", workers, err)
				}
				requireSameReach(t, fmt.Sprintf("%d workers", workers), want, got)
				st := p.LastSessionStats()
				if st.States != want.Len() || st.Levels == 0 {
					t.Fatalf("session stats %+v inconsistent with %d states", st, want.Len())
				}
				if len(st.Workers) != workers {
					t.Fatalf("stats carry %d workers, pool has %d", len(st.Workers), workers)
				}
				held := 0
				for w, wm := range st.Workers {
					if wm.StoreBytes <= 0 {
						t.Fatalf("worker %d reported no store bytes: %+v", w, wm)
					}
					held += wm.States
				}
				if held != want.Len() {
					t.Fatalf("workers hold %d states in total, store has %d", held, want.Len())
				}
			}
		})
	}
}

// TestExploreDistTokenOverflow: a worker vetoes a successor whose count
// wrapped past petri.MaxTokens, and Drive turns that veto on a place no
// cap bounds into the ErrTokenOverflow the inline explorer returns,
// naming the place; one firing fewer explores to MaxTokens.
func TestExploreDistTokenOverflow(t *testing.T) {
	for _, fuel := range []int{1, 2} {
		n := petri.New("overflow")
		f := n.AddPlace("fuel", petri.PlaceInternal, fuel)
		p := n.AddPlace("p", petri.PlaceChannel, petri.MaxTokens-1)
		tr := n.AddTransition("t", petri.TransNormal)
		n.AddArc(f, tr, 1)
		n.AddArcTP(tr, p, 1)
		for _, workers := range []int{1, 2} {
			r, err := n.ExploreDist(pipePool(t, workers), petri.ExploreOptions{})
			if fuel == 1 && (err != nil || r.Len() != 2 || r.MarkingAt(1)[1] != petri.MaxTokens) {
				t.Fatalf("%d workers, one firing: %v", workers, err)
			}
			if fuel == 2 && (!errors.Is(err, petri.ErrTokenOverflow) || !strings.Contains(err.Error(), "place p:")) {
				t.Fatalf("%d workers, two firings: err = %v, want ErrTokenOverflow at p", workers, err)
			}
		}
	}
}

// TestPoolSessionReuse: one pool serves several explorations in
// sequence (the batch drivers synthesize many apps over one pool).
func TestPoolSessionReuse(t *testing.T) {
	p := pipePool(t, 2)
	nets := []*petri.Net{ringNet(2, 3), sourceNet(), ringNet(1, 6)}
	for i, n := range nets {
		opt := petri.ExploreOptions{MaxMarkings: 200, MaxTokensPerPlace: 3, FireSources: true}
		want := n.Explore(opt)
		got, err := n.ExploreDist(p, opt)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		requireSameReach(t, fmt.Sprintf("session %d", i), want, got)
	}
}

// TestPoolPoisoned: an infrastructure failure (worker connection dies
// mid-session) surfaces as an error and poisons the pool for later
// sessions instead of silently mis-exploring.
func TestPoolPoisoned(t *testing.T) {
	p := &Pool{logw: newLogWriter("coord")}
	cs, ws := net.Pipe()
	go func() {
		c := newConn(ws)
		c.send(msgHello, appendHello(0))
		c.recv() // init
		ws.Close()
	}()
	if _, err := addPipeWorker(p, cs); err != nil {
		t.Fatal(err)
	}
	n := ringNet(2, 3)
	if _, err := n.ExploreDist(p, petri.ExploreOptions{MaxMarkings: 100}); err == nil {
		t.Fatal("want error from dying worker")
	}
	if _, err := n.ExploreDist(p, petri.ExploreOptions{MaxMarkings: 100}); err == nil {
		t.Fatal("want poisoned-pool error on reuse")
	}
}

// TestRotatingLogFile: a file-backed dist log rolls to <name>.1 at the
// size cap instead of growing without bound, keeping at most two
// generations — with the cap enforced per FILE even when several
// logWriters in one process share the path (every in-process pipe
// worker logs under the same pid).
func TestRotatingLogFile(t *testing.T) {
	path := t.TempDir() + "/worker-1.log"
	f, err := logFileFor(path)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := logFileFor(path); err != nil || again != f {
		t.Fatalf("second logFileFor(%q) = %p, %v; want the shared instance %p", path, again, err, f)
	}
	line := make([]byte, 1<<10)
	for i := range line {
		line[i] = 'x'
	}
	// Write ~2.5 caps worth: two rotations.
	for written := 0; written <= logFileCap*5/2; written += len(line) {
		if _, err := f.Write(line); err != nil {
			t.Fatal(err)
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > logFileCap {
		t.Fatalf("current generation is %dB, cap is %dB", st.Size(), logFileCap)
	}
	old, err := os.Stat(path + ".1")
	if err != nil {
		t.Fatalf("rollover generation missing: %v", err)
	}
	if old.Size() > logFileCap {
		t.Fatalf("rolled generation is %dB, cap is %dB", old.Size(), logFileCap)
	}
}

// TestShardHelpers: ShardOfHash routes by the top log2(shards) hash
// bits, and the ownership helpers cover every worker.
func TestShardHelpers(t *testing.T) {
	for logShards, shards := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		for i := 0; i < 1000; i++ {
			m := petri.Marking{int32(i & 3), int32(i >> 2 & 7), int32(i >> 5), 1}
			h := petri.HashMarking(m)
			want := uint32(0)
			if logShards > 0 {
				want = uint32(h >> (64 - logShards))
			}
			if got := petri.ShardOfHash(h, shards); got != want || int(got) >= shards {
				t.Fatalf("ShardOfHash(%#x, %d shards) = %d, want top bits %d", h, shards, got, want)
			}
		}
	}
	for _, workers := range []int{1, 2, 3, 7, 16} {
		S := petri.NumFrontierShards(workers)
		if S&(S-1) != 0 || (workers <= 64 && S < workers) {
			t.Fatalf("NumFrontierShards(%d) = %d not a usable power of two", workers, S)
		}
		covered := make([]bool, workers)
		for s := 0; s < S; s++ {
			ow := petri.ShardOwner(uint32(s), S, workers)
			if ow < 0 || ow >= workers {
				t.Fatalf("ShardOwner(%d, %d, %d) = %d out of range", s, S, workers, ow)
			}
			covered[ow] = true
		}
		for w, ok := range covered {
			if !ok {
				t.Fatalf("worker %d owns no shard of %d/%d", w, S, workers)
			}
		}
		// OwnedShardRange must be the exact inverse of ShardOwner: shard
		// s belongs to w's range iff ShardOwner says w.
		for w := 0; w < workers; w++ {
			lo, hi := petri.OwnedShardRange(w, S, workers)
			for s := 0; s < S; s++ {
				in := s >= lo && s < hi
				if owns := petri.ShardOwner(uint32(s), S, workers) == w; owns != in {
					t.Fatalf("OwnedShardRange(%d, %d, %d) = [%d,%d) disagrees with ShardOwner at shard %d",
						w, S, workers, lo, hi, s)
				}
			}
		}
	}
}
