package dist_test

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dist"
)

// Process-level chaos: kill a real spawned worker at a randomized
// level commit and require the coordinator to respawn it, rebuild its
// replica over msgRestore, and finish with generated C byte-identical
// to the serial run. The pipe-pool matrix (package dist) covers the
// redistribution path; this test is the respawn path end to end —
// SIGKILL, re-exec, handshake, restore, resume.

// spawnChaosSeed/spawnChaosRounds parameterize the kill points. CI
// runs the pinned defaults; the nightly sweep randomizes the seed
// (QSS_CHAOS_SEED) and deepens the rounds (QSS_CHAOS_ROUNDS).
func spawnChaosSeed() int64 {
	if s := os.Getenv("QSS_CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return 1
}

func spawnChaosRounds() int {
	if s := os.Getenv("QSS_CHAOS_ROUNDS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 1
}

func TestChaosSpawnedKill(t *testing.T) {
	seed, rounds := spawnChaosSeed(), spawnChaosRounds()
	serial, err := core.Synthesize(apps.PFC, apps.PFCSpec, &core.Options{Workers: 1, DisableCache: true})
	if err != nil {
		t.Fatalf("serial baseline: %v", err)
	}
	want := fingerprint(t, serial)

	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(seed + int64(round)))
		for _, procs := range []int{1, 2, 4} {
			victim, killAt := rng.Intn(procs), 1+rng.Intn(4)
			t.Run(fmt.Sprintf("round%d-procs%d", round, procs), func(t *testing.T) {
				pool, err := dist.SpawnLocal(procs)
				if err != nil {
					t.Fatalf("spawn %d workers: %v", procs, err)
				}
				defer pool.Close()
				// SIGKILL the victim at the killAt-th level commit of
				// the synthesis — mid-session, with the next frontier
				// already streaming.
				var fired int
				var once sync.Once
				pool.SetLevelHook(func(level int) {
					fired++
					if fired == killAt {
						once.Do(func() {
							if kerr := pool.KillWorker(victim); kerr != nil {
								t.Errorf("kill worker %d: %v", victim, kerr)
							}
						})
					}
				})
				r, err := core.Synthesize(apps.PFC, apps.PFCSpec, &core.Options{Workers: 1, Dist: pool, DisableCache: true})
				if err != nil {
					t.Fatalf("synthesize with worker %d killed at level commit %d: %v", victim, killAt, err)
				}
				if got := fingerprint(t, r); got != want {
					t.Errorf("kill worker %d at commit %d: output differs from serial\n%s",
						victim, killAt, firstDiff(want, got))
				}
				restarts, _ := pool.RecoveryStats()
				if restarts < 1 {
					t.Fatalf("killed worker %d at commit %d but the pool reports no restarts", victim, killAt)
				}
			})
		}
	}
}
