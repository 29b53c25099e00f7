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
		{name: "no-output", f: benchFlags{frames: 10}, wantErr: true},
		{name: "zero-frames", f: benchFlags{frames: 0, anyOutput: true}, wantErr: true},
	}
	for _, c := range cases {
		err := c.f.validate()
		if (err != nil) != c.wantErr {
			t.Errorf("%s: validate() err = %v, wantErr %v", c.name, err, c.wantErr)
		}
	}
}
