package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/link"
	"repro/internal/server"
	"repro/internal/sim"
)

// envServe makes the re-executed benchmark binary the server child.
const envServe = "QSSBENCH_SERVE"

// clients is the closed-loop client count of the service workloads:
// callers that each wait for their C before sending again, over at most
// this many connections.
const clients = 2

// coldAppsPerSecond sizes the cold corpus well above what the clients
// can send in the window, so the window, not the corpus, ends the run.
const coldAppsPerSecond = 600

// warmApps is the set the warm workload synthesizes once in set-up and
// then requests again and again.
const warmApps = 128

// corpusConfig bounds the generated apps to at most two pipelines of at
// most two stages. Three SELECT-drain pipelines multiply into single
// apps costing a second of CPU, and a few such outliers per corpus would
// make the mean cost per request follow the seed more than the program.
func corpusConfig() corpus.Config {
	c := corpus.DefaultConfig()
	c.MaxPipelines = 2
	c.MaxStages = 2
	return c
}

// serveChild is the server process of the service workloads: the
// resident server's handler on a loopback listener, next to a stats
// endpoint reporting this process's own CPU, heap allocation and peak
// RSS. It prints its address and serves until its stdin closes, which
// happens when the benchmark stops it or dies.
func serveChild() int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "qssbench server: %v\n", err)
		return 1
	}
	mux := http.NewServeMux()
	mux.Handle("/", server.New(server.Config{}).Handler())
	mux.HandleFunc("/bench/stats", serveStats)
	hs := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	fmt.Println(ln.Addr().String())
	io.Copy(io.Discard, os.Stdin)
	hs.Close()
	<-served
	return 0
}

// childStats is the server child's own account of itself.
type childStats struct {
	CPUNS      int64  `json:"cpu_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	PeakRSS    int64  `json:"peak_rss_bytes"`
}

// serveStats answers the child's stats; ?reset=1 then restarts its
// peak-RSS high-water mark.
func serveStats(w http.ResponseWriter, r *http.Request) {
	var st childStats
	st.CPUNS = int64(cpuSelf())
	st.AllocBytes, _ = heapAllocs()
	st.PeakRSS, _ = peakRSS("self")
	if r.URL.Query().Get("reset") == "1" {
		resetPeakRSS() // a failure shows in the parent's run record (checkPeakReset)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&st)
}

// serverChild is a running server child and the clients connected to
// it: hc carries the load over at most clients connections; ctl, a
// connection of its own, carries the measurement requests.
type serverChild struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	base    string
	hc, ctl *http.Client
}

func startServer() (*serverChild, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), envServe+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server child: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		addr <- strings.TrimSpace(line)
	}()
	var a string
	select {
	case a = <-addr:
	case <-time.After(30 * time.Second):
	}
	if a == "" {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("server child printed no address")
	}
	hc := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
	ctl := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}, Timeout: time.Minute}
	return &serverChild{cmd: cmd, stdin: stdin, base: "http://" + a, hc: hc, ctl: ctl}, nil
}

// stop closes the child's stdin and waits for it to exit.
func (s *serverChild) stop() error {
	s.hc.CloseIdleConnections()
	s.ctl.CloseIdleConnections()
	s.stdin.Close()
	return s.cmd.Wait()
}

func (s *serverChild) stats(reset bool) (childStats, error) {
	url := s.base + "/bench/stats"
	if reset {
		url += "?reset=1"
	}
	var st childStats
	resp, err := s.ctl.Get(url)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// promValue reads one sample of the child's /metrics, e.g.
// `qss_panics_total` or `qss_requests_total{outcome="rejected"}`.
func (s *serverChild) promValue(sample string) (float64, error) {
	resp, err := s.ctl.Get(s.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), sample+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, sc.Err() // an unlabeled counter that never moved may be absent
}

// synthResponse is the part of the /v1/synthesize reply the checks read.
type synthResponse struct {
	Tasks       []struct{}        `json:"tasks"`
	Code        map[string]string `json:"code"`
	Bounds      map[string]int    `json:"bounds"`
	CacheHit    bool              `json:"cache_hit"`
	SynthesisUS int64             `json:"synthesis_us"`
}

// reply is one request's outcome as the client saw it.
type reply struct {
	resp                synthResponse
	status              int
	wall                time.Duration
	reqBytes, respBytes int
	err                 error
}

func (s *serverChild) synthesize(app *corpus.App) reply {
	body, err := json.Marshal(map[string]string{"flowc": app.FlowC, "net": app.Spec})
	if err != nil {
		return reply{err: err}
	}
	w0 := time.Now()
	resp, err := s.hc.Post(s.base+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, wall: time.Since(w0), reqBytes: len(body), respBytes: len(data), err: err}
	if err == nil && resp.StatusCode == http.StatusOK {
		r.err = json.Unmarshal(data, &r.resp)
	}
	return r
}

// checkReply requires a 200 whose cache flag is the expected one and
// that carries one task per trigger of the app.
func checkReply(app *corpus.App, r reply, wantHit bool) error {
	switch {
	case r.err != nil:
		return fmt.Errorf("%s: %w", app.Name, r.err)
	case r.status != http.StatusOK:
		return fmt.Errorf("%s: HTTP %d", app.Name, r.status)
	case r.resp.CacheHit != wantHit:
		return fmt.Errorf("%s: cache_hit %v, want %v", app.Name, r.resp.CacheHit, wantHit)
	case len(r.resp.Tasks) != len(app.Triggers):
		return fmt.Errorf("%s: %d tasks for %d triggers", app.Name, len(r.resp.Tasks), len(app.Triggers))
	}
	return nil
}

// corpusSimCheck is TestCorpusProperties' oracle: the free-running
// baseline interpreter, every channel capped at the bound the server
// returned, must consume every trigger, deliver each deterministic
// output's items and never hold more than a bound.
func corpusSimCheck(app *corpus.App, sys *link.System, bounds map[string]int) error {
	const triggers = 3
	b := sim.NewBaseline(sys, sim.PFC, 0)
	caps := map[string]int{}
	for _, ch := range sys.Channels {
		bound := bounds[ch.Spec.Name]
		if bound <= 0 {
			return fmt.Errorf("%s: channel %s has bound %d", app.Name, ch.Spec.Name, bound)
		}
		caps[ch.Spec.Name] = bound
	}
	b.CapacityOf = caps
	for _, trig := range app.Triggers {
		for k := 0; k < triggers; k++ {
			b.Input(trig).Push(int64(k%4 + 1))
		}
	}
	if _, err := b.Run(); err != nil {
		return fmt.Errorf("%s: baseline under the returned bounds: %w", app.Name, err)
	}
	for _, trig := range app.Triggers {
		if n := b.Input(trig).Len(); n != 0 {
			return fmt.Errorf("%s: trigger %s left %d inputs", app.Name, trig, n)
		}
	}
	for out, per := range app.DetOutputs {
		if got := len(b.Output(out).Vals); got != per*triggers {
			return fmt.Errorf("%s: output %s delivered %d items, want %d", app.Name, out, got, per*triggers)
		}
	}
	for name, ch := range b.Channels {
		if ch.MaxOccupancy > caps[name] {
			return fmt.Errorf("%s: channel %s held %d items, bound %d", app.Name, name, ch.MaxOccupancy, caps[name])
		}
	}
	return nil
}

// checkCold checks one cold reply, simulation included.
func checkCold(app *corpus.App, r reply) error {
	if err := checkReply(app, r, false); err != nil {
		return err
	}
	sys, err := frontHalf(app.FlowC, app.Spec)
	if err != nil {
		return fmt.Errorf("%s: %w", app.Name, err)
	}
	return corpusSimCheck(app, sys, r.resp.Bounds)
}

// closedLoop runs the clients, each sending request i = 0, 1, ... only
// after its previous reply, until the deadline passes or limit requests
// were sent. Requests 0 to n-1 are sent for some n.
func closedLoop(deadline time.Time, limit int, do func(client, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= limit {
					return
				}
				do(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// subWindows is how many samples a service window is cut into.
const subWindows = 10

// sampleServer samples the server child while the clients run: every
// window/subWindows, and once more when done closes, it reads the
// child's CPU, allocation and peak RSS and restarts the peak. sent
// counts the requests completed.
func sampleServer(srv *serverChild, window time.Duration, sent *atomic.Int64, done <-chan struct{}) ([]sample, error) {
	prev, err := srv.stats(true)
	if err != nil {
		return nil, err
	}
	prevSent := sent.Load()
	t0 := time.Now()
	var out []sample
	take := func(reset bool) error {
		st, err := srv.stats(reset)
		if err != nil {
			return err
		}
		n := sent.Load()
		out = append(out, sample{cpu: time.Duration(st.CPUNS - prev.CPUNS), alloc: st.AllocBytes - prev.AllocBytes, peak: st.PeakRSS, ops: int(n - prevSent)})
		prev, prevSent = st, n
		return nil
	}
	for k := 1; k < subWindows; k++ {
		select {
		case <-time.After(time.Until(t0.Add(window * time.Duration(k) / subWindows))):
			if err := take(true); err != nil {
				return nil, err
			}
			continue
		case <-done:
		}
		break
	}
	<-done
	return out, take(false)
}

// serverCounters reads the server-side failure counters.
func (b *bench) serverCounters(srv *serverChild) error {
	rejected, err := srv.promValue(`qss_requests_total{outcome="rejected"}`)
	if err != nil {
		return err
	}
	panics, err := srv.promValue("qss_panics_total")
	if err != nil {
		return err
	}
	b.setLayer("server.rejected", rejected)
	b.setLayer("server.panics", panics)
	return nil
}

// runServiceCold sends each app of a seeded corpus once to the server
// child: every request is a cache miss followed by a put.
func runServiceCold(b *bench) error {
	nApps := int(math.Ceil(b.opt.window.Seconds()*coldAppsPerSecond)) + 1
	var setups []setupResult
	var srv *serverChild
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var apps []*corpus.App
	var genCPU time.Duration
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return fmt.Errorf("stop server child: %w", err)
			}
			srv = nil
		}
		c0, w0 := cpuSelf(), time.Now()
		apps = corpus.GenerateCorpus(b.opt.seed, nApps, corpusConfig())
		genCPU = cpuSelf() - c0
		var err error
		if srv, err = startServer(); err != nil {
			return err
		}
		rep := srv.synthesize(apps[0])
		cpu, wall := cpuSelf()-c0, time.Since(w0)
		st, err := srv.stats(false)
		if err != nil {
			return err
		}
		setups = append(setups, setupResult{cpu + time.Duration(st.CPUNS), wall})
		b.op(checkCold(apps[0], rep))
	}
	b.setups(setups)
	b.setLayer("corpus.gen_ms", ms(genCPU))
	b.setLayer("corpus.apps", float64(nApps))

	window := b.opt.window
	if b.tr != nil {
		window /= 2
	}
	replies := make([]reply, len(apps))
	var sent atomic.Int64
	done := make(chan struct{})
	deadline := time.Now().Add(window)
	go func() {
		defer close(done)
		closedLoop(deadline, len(apps)-1, func(_, i int) {
			replies[1+i] = srv.synthesize(apps[1+i])
			sent.Add(1)
		})
	}()
	samples, err := sampleServer(srv, window, &sent, done)
	<-done
	if err != nil {
		return err
	}
	sentN := int(sent.Load())
	cpuPerOp := b.reportSamples(samples, true)
	if b.opt.corrupt {
		replies[1].resp.CacheHit = true
	}
	var lat []time.Duration
	var inBytes int
	for i := 1; i <= sentN; i++ {
		lat = append(lat, replies[i].wall)
		inBytes += len(apps[i].FlowC) + len(apps[i].Spec)
		b.op(checkCold(apps[i], replies[i]))
	}
	b.note("latency", latencySummary(lat))
	b.note("inputs", fmt.Sprintf("%d of %d generated apps sent, %.1f KB of FlowC+netlist each", sentN, nApps, float64(inBytes)/1e3/float64(sentN)))
	if b.tr == nil {
		return b.serverCounters(srv)
	}

	// Traced: one client; each request is followed by a replay of the
	// same synthesis through the layers, which must yield the server's C.
	counts := layerCounts{}
	tb, err := srv.stats(false)
	if err != nil {
		return err
	}
	deadline = time.Now().Add(window)
	for i := 1 + sentN; i < len(apps) && time.Now().Before(deadline); i++ {
		app := apps[i]
		b.tr.beginOp("op")
		b.tr.begin("server.request")
		rep := srv.synthesize(app)
		if rep.err == nil {
			b.tr.remote("core.synthesize", time.Duration(rep.resp.SynthesisUS)*time.Microsecond)
		}
		b.tr.end()
		out, rerr := replay(b.tr, counts, app.FlowC, app.Spec)
		b.tr.end()
		countRequest(counts, rep)
		err := checkReply(app, rep, false)
		if err == nil && rerr != nil {
			err = fmt.Errorf("%s: replay: %w", app.Name, rerr)
		}
		if err == nil {
			err = sameCode(rep.resp.Code, out.code)
		}
		if err == nil {
			err = corpusSimCheck(app, out.sys, rep.resp.Bounds)
		}
		b.op(err)
	}
	ta, err := srv.stats(false)
	if err != nil {
		return err
	}
	if err := b.serverCounters(srv); err != nil {
		return err
	}
	return b.traceMetrics(counts, cpuPerOp, float64(ta.CPUNS-tb.CPUNS)/1e6/float64(b.tr.ops))
}

func countRequest(c layerCounts, r reply) {
	c["_requests"]++
	if r.resp.CacheHit {
		c["_core.hits"]++
	}
	c["server.req_kb"] += float64(r.reqBytes) / 1e3
	c["server.resp_kb"] += float64(r.respBytes) / 1e3
}

// runServiceWarm synthesizes a seeded set of apps once in set-up, then
// requests them again and again: every request is a cache hit.
func runServiceWarm(b *bench) error {
	var setups []setupResult
	var srv *serverChild
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var apps []*corpus.App
	var cold []reply
	var genCPU time.Duration
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return fmt.Errorf("stop server child: %w", err)
			}
			srv = nil
		}
		c0, w0 := cpuSelf(), time.Now()
		apps = corpus.GenerateCorpus(b.opt.seed, warmApps, corpusConfig())
		genCPU = cpuSelf() - c0
		var err error
		if srv, err = startServer(); err != nil {
			return err
		}
		cold = make([]reply, len(apps))
		closedLoop(time.Now().Add(time.Hour), len(apps), func(_, i int) { cold[i] = srv.synthesize(apps[i]) })
		rep := srv.synthesize(apps[0])
		cpu, wall := cpuSelf()-c0, time.Since(w0)
		st, err := srv.stats(false)
		if err != nil {
			return err
		}
		setups = append(setups, setupResult{cpu + time.Duration(st.CPUNS), wall})
		for j, app := range apps {
			b.op(checkCold(app, cold[j]))
		}
		b.op(checkWarm(apps[0], rep, cold[0]))
	}
	b.setups(setups)
	b.setLayer("corpus.gen_ms", ms(genCPU))
	b.setLayer("corpus.apps", float64(len(apps)))

	window := b.opt.window
	if b.tr != nil {
		window /= 2
	}
	var mu sync.Mutex
	lat := make([][]time.Duration, clients)
	var errs []error
	corrupt := b.opt.corrupt
	var sent atomic.Int64
	done := make(chan struct{})
	deadline := time.Now().Add(window)
	go func() {
		defer close(done)
		closedLoop(deadline, math.MaxInt, func(c, i int) {
			app := i % len(apps)
			rep := srv.synthesize(apps[app])
			lat[c] = append(lat[c], rep.wall)
			mu.Lock()
			if corrupt {
				rep.resp.CacheHit = false
				corrupt = false
			}
			errs = append(errs, checkWarm(apps[app], rep, cold[app]))
			mu.Unlock()
			sent.Add(1)
		})
	}()
	samples, err := sampleServer(srv, window, &sent, done)
	<-done
	if err != nil {
		return err
	}
	cpuPerOp := b.reportSamples(samples, false)
	b.endToEnd("warm_cpu_ms_per_op", "ms", cpuPerOp)
	b.endToEnd("warm_alloc_kb_per_op", "KB", b.e2e["alloc_mb_per_op"].Value*1e3)
	for _, err := range errs {
		b.op(err)
	}
	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	b.note("latency", latencySummary(all))
	b.note("inputs", fmt.Sprintf("%d apps, each synthesized once in set-up", len(apps)))
	if b.tr == nil {
		return b.serverCounters(srv)
	}

	counts := layerCounts{}
	tb, err := srv.stats(false)
	if err != nil {
		return err
	}
	for i, end := 0, time.Now().Add(window); time.Now().Before(end); i++ {
		app := i % len(apps)
		b.tr.beginOp("op")
		b.tr.begin("server.request")
		rep := srv.synthesize(apps[app])
		if rep.err == nil {
			b.tr.remote("core.hit", time.Duration(rep.resp.SynthesisUS)*time.Microsecond)
		}
		b.tr.end()
		b.tr.end()
		countRequest(counts, rep)
		b.op(checkWarm(apps[app], rep, cold[app]))
	}
	ta, err := srv.stats(false)
	if err != nil {
		return err
	}
	if err := b.serverCounters(srv); err != nil {
		return err
	}
	return b.traceMetrics(counts, cpuPerOp, float64(ta.CPUNS-tb.CPUNS)/1e6/float64(b.tr.ops))
}

// checkWarm requires a cache hit carrying exactly the C of the app's
// cold synthesis.
func checkWarm(app *corpus.App, r, cold reply) error {
	if err := checkReply(app, r, true); err != nil {
		return err
	}
	if err := sameCode(cold.resp.Code, r.resp.Code); err != nil {
		return fmt.Errorf("%s: %w", app.Name, err)
	}
	return nil
}
