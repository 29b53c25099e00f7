package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dist"
)

func TestMain(m *testing.M) {
	// The dist workload's workers and the service workloads' server
	// child re-execute this test binary.
	dist.MaybeWorker()
	if os.Getenv(envServe) != "" {
		os.Exit(serveChild())
	}
	// The workloads read the golden C and the PNML suite relative to the
	// repository root.
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runShort runs one workload with a short window and returns its JSON
// result.
func runShort(t *testing.T, name string, trace, corrupt bool) result {
	t.Helper()
	b := newBench(options{workload: name, seed: 1, window: 400 * time.Millisecond, trace: trace, corrupt: corrupt,
		traceOut: filepath.Join(t.TempDir(), "spans.json")})
	if err := workloads[name](b); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := b.finish(&out); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	return r
}

// TestWorkloads runs every workload traced — its first half runs
// untraced — and requires clean checks and every per-layer metric. With
// one output damaged, the checks must see it.
func TestWorkloads(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			r := runShort(t, name, true, false)
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("clean run: correct %v, %d of %d ops failed", r.Correct, r.Failed, r.Attempted)
			}
			for _, m := range perLayer {
				if _, ok := r.Metrics[m]; !ok {
					t.Errorf("per-layer metric %s missing", m)
				}
			}
			if len(r.Metrics) != len(perLayer) {
				t.Errorf("%d metrics, want %d", len(r.Metrics), len(perLayer))
			}
			if r := runShort(t, name, false, true); r.Correct || r.Failed == 0 {
				t.Errorf("corrupted run: correct %v, %d of %d ops failed; want a failure", r.Correct, r.Failed, r.Attempted)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric sets the runs
// print in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads, %d runners", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(gatedEndToEnd) {
		t.Errorf("%d end-to-end metrics, the runs print %d", len(spec.EndToEnd), len(gatedEndToEnd))
	}
	for i, m := range spec.EndToEnd {
		if i < len(gatedEndToEnd) && m.Name != gatedEndToEnd[i] {
			t.Errorf("end-to-end metric %d is %s, the runs print %s", i, m.Name, gatedEndToEnd[i])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics, the runs print %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if i < len(perLayer) && (m.Name != perLayer[i] || m.Unit != perLayerUnit[m.Name]) {
			t.Errorf("per-layer metric %d is %s in %s, the runs print %s in %s", i, m.Name, m.Unit, perLayer[i], perLayerUnit[perLayer[i]])
		}
	}
}
