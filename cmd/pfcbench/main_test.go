package main

import "testing"

// TestPFCBenchFlagValidation: contradictory or out-of-range flag
// combinations are rejected with a descriptive error instead of being
// silently clamped.
func TestPFCBenchFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		f       benchFlags
		wantErr bool
	}{
		{name: "defaults", f: benchFlags{frames: 10, anyOutput: true}},
		{name: "dist", f: benchFlags{frames: 10, distWorkers: 2, anyOutput: true}},
		{name: "dist-endpoint", f: benchFlags{frames: 1, distWorkers: 1, distEndpoint: "tcp:127.0.0.1:9000", anyOutput: true}},
		{name: "no-output", f: benchFlags{frames: 10}, wantErr: true},
		{name: "zero-frames", f: benchFlags{frames: 0, anyOutput: true}, wantErr: true},
		{name: "negative-dist", f: benchFlags{frames: 10, distWorkers: -3, anyOutput: true}, wantErr: true},
		{name: "endpoint-without-workers", f: benchFlags{frames: 10, distEndpoint: "unix:/tmp/q.sock", anyOutput: true}, wantErr: true},

		// -pnml mode: no evaluation output needed, exploration flags
		// compose, evaluation flags are rejected when explicitly set.
		{name: "pnml", f: benchFlags{frames: 10, pnml: multiFlag{"net.pnml"}}},
		{name: "pnml-two-files", f: benchFlags{frames: 10, pnml: multiFlag{"a.pnml", "b.pnml"}}},
		{name: "pnml-with-dist", f: benchFlags{frames: 10, distWorkers: 2, pnml: multiFlag{"net.pnml"}}},
		{name: "pnml-with-caps", f: benchFlags{frames: 10, pnml: multiFlag{"net.pnml"}, pnmlMaxMarkings: 1000, pnmlMaxTokens: 4,
			explicit: map[string]bool{"pnml": true, "pnml-max-markings": true, "pnml-max-tokens": true}}},
		{name: "pnml-vs-fig20", f: benchFlags{frames: 10, anyOutput: true, pnml: multiFlag{"net.pnml"},
			explicit: map[string]bool{"pnml": true, "fig20": true}}, wantErr: true},
		{name: "pnml-vs-all", f: benchFlags{frames: 10, anyOutput: true, pnml: multiFlag{"net.pnml"},
			explicit: map[string]bool{"pnml": true, "all": true}}, wantErr: true},
		{name: "pnml-vs-frames", f: benchFlags{frames: 50, pnml: multiFlag{"net.pnml"},
			explicit: map[string]bool{"pnml": true, "frames": true}}, wantErr: true},
		{name: "pnml-caps-without-pnml", f: benchFlags{frames: 10, anyOutput: true, pnmlMaxMarkings: 1000,
			explicit: map[string]bool{"pnml-max-markings": true}}, wantErr: true},
		{name: "pnml-negative-markings", f: benchFlags{frames: 10, pnml: multiFlag{"net.pnml"}, pnmlMaxMarkings: -1}, wantErr: true},
		{name: "pnml-negative-tokens", f: benchFlags{frames: 10, pnml: multiFlag{"net.pnml"}, pnmlMaxTokens: -2}, wantErr: true},
	}
	for _, c := range cases {
		err := c.f.validate()
		if (err != nil) != c.wantErr {
			t.Errorf("%s: validate() err = %v, wantErr %v", c.name, err, c.wantErr)
		}
	}
}
