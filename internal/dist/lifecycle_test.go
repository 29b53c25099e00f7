package dist

import (
	"errors"
	"net"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/petri"
)

// Tests for the pool/worker lifecycle: locked NumWorkers, bounded
// concurrent teardown, and a worker that survives session-scoped
// failures.

// TestNumWorkersRace: NumWorkers must be safe against a concurrent
// Close (run under -race; the unlocked read was a data race).
func TestNumWorkersRace(t *testing.T) {
	p := pipePool(t, 2)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				p.NumWorkers()
			}
		}()
	}
	p.Close()
	wg.Wait()
}

// TestPoolCloseBounded: a pool of hung workers tears down within one
// shared deadline, not one deadline per worker.
func TestPoolCloseBounded(t *testing.T) {
	old := closeTimeout
	closeTimeout = 200 * time.Millisecond
	defer func() { closeTimeout = old }()
	p := &Pool{logw: newLogWriter("coord")}
	const hung = 3
	for i := 0; i < hung; i++ {
		cmd := exec.Command("sleep", "30")
		if err := cmd.Start(); err != nil {
			t.Fatalf("start sleeper %d: %v", i, err)
		}
		p.cmds = append(p.cmds, cmd)
	}
	begin := time.Now()
	err := p.Close()
	elapsed := time.Since(begin)
	if err == nil || !strings.Contains(err.Error(), "hung at close") {
		t.Fatalf("Close() = %v, want a hung-workers report", err)
	}
	// The old sequential teardown took closeTimeout per worker; the
	// shared deadline must finish well under twice the single timeout.
	if elapsed >= 2*closeTimeout {
		t.Fatalf("Close of %d hung workers took %v, deadline is %v shared", hung, elapsed, closeTimeout)
	}
}

// TestWorkerSurvivesBadSession: a session-scoped failure (malformed
// init) reports one msgError and the worker keeps serving — the next
// session on the same connection runs to completion. A transport
// failure mid-session still hard-exits the serve loop.
func TestWorkerSurvivesBadSession(t *testing.T) {
	cs, ws := net.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- ServeConn(ws, newLogWriter("worker")) }()
	p := &Pool{logw: newLogWriter("coord")}
	if _, err := addPipeWorker(p, cs); err != nil {
		t.Fatal(err)
	}
	c := p.workers[0]

	// A malformed init must fail the session, not the worker.
	if err := c.send(msgInit, []byte{0xff}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.expect(msgStats); err == nil || !strings.Contains(err.Error(), "peer error") {
		t.Fatalf("want the worker's error report, got %v", err)
	}

	// The same connection serves a full exploration afterwards.
	n := ringNet(2, 4)
	opt := petri.ExploreOptions{MaxMarkings: 1000}
	want := n.Explore(opt)
	got, err := n.ExploreDist(p, opt)
	if err != nil {
		t.Fatalf("session after failure: %v", err)
	}
	requireSameReach(t, "session after failure", want, got)

	// Stray non-init frames between sessions fail-and-drain the same
	// way: exactly one error report, then the worker waits for an init.
	if err := c.send(msgAck, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.expect(msgStats); err == nil || !strings.Contains(err.Error(), "peer error") {
		t.Fatalf("want the worker's error report, got %v", err)
	}
	// A second stray frame is drained quietly — were it answered with
	// another msgError, the next session's reader would choke on it.
	if err := c.send(msgAck, []byte{1}); err != nil {
		t.Fatal(err)
	}
	got, err = n.ExploreDist(p, opt)
	if err != nil {
		t.Fatalf("session after drain: %v", err)
	}
	requireSameReach(t, "session after drain", want, got)

	// Severing the link mid-session is a transport error: the serve
	// loop must exit non-nil (the process has nothing left to serve).
	init := &initMsg{index: 0, workers: 1, shards: petri.NumFrontierShards(1), hi: 1, net: n, spec: fullSpec(n),
		gids: []petri.MarkID{0}, vecs: []petri.Marking{n.InitialMarking()}}
	if err := c.send(msgInit, appendInit(nil, init)); err != nil {
		t.Fatal(err)
	}
	cs.Close()
	werr := <-errc
	var te *transportError
	if werr == nil || !errors.As(werr, &te) {
		t.Fatalf("worker exited %v, want a transport error", werr)
	}
}
