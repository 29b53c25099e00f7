// Package strategyflag is the shared execution-strategy plumbing of the
// command-line tools: -dist-workers, -dist-endpoint and -freeze-levels
// are declared, validated and turned into a worker pool plus one
// petri.Strategy in one place, which the tools then hand down
// unchanged.
package strategyflag

import (
	"flag"
	"fmt"

	"repro/internal/dist"
	"repro/internal/petri"
)

// Flags holds the parsed strategy flags.
type Flags struct {
	Workers  int    // -dist-workers
	Endpoint string // -dist-endpoint
	Freeze   bool   // -freeze-levels
}

// Register declares the strategy flags on fs and returns where their
// values land once fs is parsed.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Workers, "dist-workers", 0, "worker OS processes sharding each exploration (0 = explore in-process)")
	fs.StringVar(&f.Endpoint, "dist-endpoint", "", "await externally started qssd workers at this endpoint instead of spawning (requires -dist-workers)")
	fs.BoolVar(&f.Freeze, "freeze-levels", false, "freeze closed exploration levels to on-disk delta segments (the workers follow)")
	return f
}

// Validate rejects contradictory or out-of-range combinations with a
// descriptive error instead of silently clamping.
func (f *Flags) Validate() error {
	switch {
	case f.Workers < 0:
		return fmt.Errorf("-dist-workers must be >= 0 (0 = no worker processes), got %d", f.Workers)
	case f.Endpoint != "" && f.Workers == 0:
		return fmt.Errorf("-dist-endpoint requires -dist-workers >= 1 (how many workers to await)")
	}
	return nil
}

// Open starts the worker pool the flags ask for — spawned locally by
// re-executing the current binary, which must call dist.MaybeWorker
// first thing in main, or awaited at -dist-endpoint, which logf
// announces before blocking — and returns it with the strategy that
// runs on it: the pool as Runner, Fallback on, Freeze from
// -freeze-levels. With -dist-workers 0 the pool is nil and so is the
// strategy's Runner, which keeps the exploration inline. The caller
// closes a non-nil pool.
func (f *Flags) Open(logf func(format string, v ...any)) (*dist.Pool, petri.Strategy, error) {
	st := petri.Strategy{Fallback: true, Freeze: f.Freeze}
	if f.Workers == 0 {
		// A nil *dist.Pool stored in Runner would be a non-nil
		// interface that petri.Drive tries to run on.
		return nil, st, nil
	}
	var (
		pool *dist.Pool
		err  error
	)
	if f.Endpoint != "" {
		logf("awaiting %d qssd worker(s) at %s", f.Workers, f.Endpoint)
		pool, err = dist.Listen(f.Endpoint, f.Workers)
	} else {
		pool, err = dist.SpawnLocal(f.Workers)
	}
	if err != nil {
		return nil, petri.Strategy{}, fmt.Errorf("dist pool: %w", err)
	}
	st.Runner = pool
	return pool, st, nil
}
