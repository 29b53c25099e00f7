package dist_test

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/dist"
)

// Process-level chaos: kill a real spawned worker at a randomized
// level commit and require the coordinator to respawn it, reseed its
// replica with the re-init, and finish with a ReachResult
// byte-identical to the inline exploration. The pipe-pool matrix (package dist) covers the
// redistribution path; this test is the respawn path end to end —
// SIGKILL, re-exec, handshake, re-init, resume.

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
	n := linkedPFCNet(t)
	want := n.Explore(matrixOpt)

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
				// the exploration — mid-session, with the next frontier
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
				got, err := n.ExploreDist(pool, matrixOpt)
				if err != nil {
					t.Fatalf("explore with worker %d killed at level commit %d: %v", victim, killAt, err)
				}
				assertSameReach(t, fmt.Sprintf("kill worker %d at commit %d", victim, killAt), want, got)
				if st := pool.LastSessionStats(); st.Restarts < 1 || st.Degraded {
					t.Fatalf("killed worker %d at commit %d: session stats %+v, want a restart and no degradation", victim, killAt, st)
				}
			})
		}
	}
}
