package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. The spans of one op share Op; the op's
// root span has Parent -1.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // wall clock, from the start of the run
	End    float64 `json:"end_us"`
	CPU    float64 `json:"cpu_us"` // process CPU over the span
	// Remote marks a duration another process reported (the server's
	// synthesis_us); it has no CPU in this process.
	Remote bool `json:"remote,omitempty"`
}

func (s *span) wallUS() float64 { return s.End - s.Start }

// tracer keeps the spans of a traced run in memory. Traced ops run on
// one goroutine, so open spans nest as a stack. A nil *tracer records
// nothing.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	cpu0  []time.Duration
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// beginOp opens the root span of the next op.
func (t *tracer) beginOp(name string) {
	if t == nil {
		return
	}
	t.ops++
	t.begin(name)
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: t.ops, Name: name, Start: t.now()})
	t.open = append(t.open, len(t.spans)-1)
	t.cpu0 = append(t.cpu0, cpuSelf())
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	c0 := t.cpu0[len(t.cpu0)-1]
	t.open, t.cpu0 = t.open[:len(t.open)-1], t.cpu0[:len(t.cpu0)-1]
	t.spans[i].End = t.now()
	t.spans[i].CPU = float64((cpuSelf() - c0).Nanoseconds()) / 1e3
}

// remote records a child of the innermost open span that another
// process reported as lasting d, placed to end now.
func (t *tracer) remote(name string, d time.Duration) {
	if t == nil {
		return
	}
	end := t.now()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: t.open[len(t.open)-1], Op: t.ops, Name: name,
		Start: end - float64(d.Nanoseconds())/1e3, End: end, Remote: true})
}

// layerTime is the self time of one span name summed over a run: the
// span's time minus what its direct children cover.
type layerTime struct {
	cpuUS, wallUS float64
}

// selfTimes aggregates self times per span name. Self times telescope:
// over the spans of one op they add up to its root span exactly, in CPU
// and in wall time, and the root's own self time is what no layer
// claimed ("unattributed").
func (t *tracer) selfTimes() map[string]*layerTime {
	childCPU := make([]float64, len(t.spans))
	childWall := make([]float64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			childCPU[p] += t.spans[i].CPU
			childWall[p] += t.spans[i].wallUS()
		}
	}
	out := map[string]*layerTime{}
	for i := range t.spans {
		s := &t.spans[i]
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.cpuUS += s.CPU - childCPU[i]
		lt.wallUS += s.wallUS() - childWall[i]
	}
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
