package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSelf returns the user+system CPU time of every thread of this
// process. getrusage reports it in microseconds, unlike the 10ms ticks
// of /proc/<pid>/stat.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail with a valid who
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocs returns the bytes and objects this process has allocated
// on the Go heap since it started (the runtime/metrics counterparts of
// MemStats.TotalAlloc and Mallocs, read without stopping the world).
func heapAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// threadsCPU sums the on-CPU time of every live thread of pid from
// /proc/<pid>/task/*/schedstat, in nanoseconds. /proc/<pid>/schedstat
// alone covers only the main thread. Go threads do not exit, so the sum
// covers the whole process.
func threadsCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no threads for pid %d", pid)
	}
	var sum time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", t, err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// childPids returns the pids of this process's live children.
func childPids() []int {
	self := os.Getpid()
	ents, _ := os.ReadDir("/proc")
	var out []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// The command name is parenthesized and may contain spaces;
		// the parent pid is the second field after it.
		i := bytes.LastIndexByte(b, ')')
		if i < 0 {
			continue
		}
		f := strings.Fields(string(b[i+1:]))
		if len(f) > 1 && f[1] == strconv.Itoa(self) {
			out = append(out, pid)
		}
	}
	return out
}

// childrenCPU sums threadsCPU over this process's live children.
func childrenCPU() time.Duration {
	var sum time.Duration
	for _, pid := range childPids() {
		if d, err := threadsCPU(pid); err == nil {
			sum += d
		}
	}
	return sum
}

// resetPeakRSS restarts this process's peak-RSS high-water mark at its
// current RSS, so a later peakRSS covers only what follows.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte("5"))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// peakRSS returns the VmHWM of /proc/<pid>/status in bytes; pid may be
// "self".
func peakRSS(pid string) (int64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// cpuTicks is the aggregate line of /proc/stat: all ticks, and the
// ticks the hypervisor gave to other guests while this VM wanted to run.
type cpuTicks struct{ total, steal uint64 }

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t cpuTicks
	for i, s := range f[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		if i >= 8 { // guest time is already counted in user time
			break
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of CPU ticks between a and b that the host
// stole from this VM.
func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencySummary reports the median wall latency and the highest
// percentile that still has at least ten samples above it, with the
// sample count.
func latencySummary(ds []time.Duration) string {
	n := len(ds)
	if n == 0 {
		return "no samples"
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := fmt.Sprintf("p50 %.3fms", ms(s[(n-1)/2]))
	if n > 11 {
		k := n - 11 // s[k] has exactly ten samples above it
		out += fmt.Sprintf(", p%.4g %.3fms", 100*float64(k+1)/float64(n), ms(s[k]))
	}
	return out + fmt.Sprintf(" (n=%d)", n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sample is the cost of one op, or of one sub-window of requests: CPU
// time and Go heap bytes allocated by the processes doing the work, and
// the peak RSS of the one that holds the data.
type sample struct {
	cpu   time.Duration
	alloc uint64
	peak  int64
	ops   int
}

// meter measures one op run in this process; extra, if set, adds the
// CPU of the worker processes the op drives.
type meter struct {
	extra func() time.Duration
	cpu0  time.Duration
	x0    time.Duration
	a0    uint64
	w0    time.Time
}

// startMeter restarts the peak-RSS high-water mark and starts counting.
func startMeter(extra func() time.Duration) meter {
	resetPeakRSS() // a failure shows in the run record (checkPeakReset)
	m := meter{extra: extra}
	if extra != nil {
		m.x0 = extra()
	}
	m.a0, _ = heapAllocs()
	m.cpu0, m.w0 = cpuSelf(), time.Now()
	return m
}

// stop returns the op's sample and wall time.
func (m meter) stop() (sample, time.Duration) {
	s := sample{cpu: cpuSelf() - m.cpu0, ops: 1}
	wall := time.Since(m.w0)
	a1, _ := heapAllocs()
	s.alloc = a1 - m.a0
	if m.extra != nil {
		s.cpu += m.extra() - m.x0
	}
	s.peak, _ = peakRSS("self")
	return s, wall
}
