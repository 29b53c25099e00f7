package strategyflag

import (
	"flag"
	"io"
	"os"
	"testing"

	"repro/internal/dist"
)

func TestMain(m *testing.M) {
	// The spawn case re-executes this test binary as its worker.
	dist.MaybeWorker()
	os.Exit(m.Run())
}

// TestFlags: the strategy flags of qssbatch, pfcbench and qss-server
// parse, validate and open in one place. Contradictory or out-of-range
// combinations are rejected instead of silently clamped; without
// -dist-workers the strategy's Runner is a nil interface, not a nil
// *dist.Pool, so the exploration stays inline.
func TestFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr bool
		open    bool // also Open the strategy and check it
	}{
		{name: "defaults", open: true},
		{name: "freeze-inline", args: []string{"-freeze-levels"}, open: true},
		{name: "spawn-1-frozen", args: []string{"-dist-workers", "1", "-freeze-levels"}, open: true},
		{name: "dist", args: []string{"-dist-workers", "2"}},
		{name: "dist-endpoint", args: []string{"-dist-workers", "3", "-dist-endpoint", "unix:/tmp/x.sock"}},
		{name: "negative-dist", args: []string{"-dist-workers", "-1"}, wantErr: true},
		{name: "endpoint-without-workers", args: []string{"-dist-endpoint", "unix:/tmp/x.sock"}, wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f := Register(fs)
			if err := fs.Parse(c.args); err != nil {
				t.Fatal(err)
			}
			err := f.Validate()
			if (err != nil) != c.wantErr {
				t.Fatalf("Validate() err = %v, wantErr %v", err, c.wantErr)
			}
			if !c.open {
				return
			}
			pool, st, err := f.Open(t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			if pool != nil {
				defer pool.Close()
			}
			if !st.Fallback || st.Freeze != f.Freeze {
				t.Fatalf("strategy %+v, want Fallback and Freeze=%v", st, f.Freeze)
			}
			switch {
			case f.Workers == 0 && (pool != nil || st.Runner != nil):
				t.Fatalf("no -dist-workers: pool %v, Runner %#v, want both nil", pool, st.Runner)
			case f.Workers > 0 && (pool == nil || st.Runner != pool):
				t.Fatalf("-dist-workers %d: Runner %#v is not the pool %p", f.Workers, st.Runner, pool)
			}
		})
	}
}
