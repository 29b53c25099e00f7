package dist

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/petri"
)

// Tests for the pipelined session: streaming merge, candNew-by-hash
// classification and the mid-level abort path.

// fullSpec builds the ExpandSpec an unrestricted exploration would use:
// every ECS fireable, no token caps. For tests that drive RunFrontier
// directly with hand-rolled hooks.
func fullSpec(n *petri.Net) petri.ExpandSpec {
	part := n.ECSPartition()
	mask := make([]uint64, (len(part)+63)/64)
	for ei := range part {
		mask[ei/64] |= 1 << (ei % 64)
	}
	caps := make([]int, len(n.Places))
	for i := range caps {
		caps[i] = -1
	}
	return petri.ExpandSpec{Mask: mask, Caps: caps}
}

// slowConn delays every Write by a fixed latency — a worker whose
// candidate stream trickles in long after its peers'.
type slowConn struct {
	net.Conn
	delay time.Duration
}

func (s *slowConn) Write(p []byte) (int, error) {
	time.Sleep(s.delay)
	return s.Conn.Write(p)
}

// TestExploreDistPipelinedDelayedWorker: one worker's stream arriving
// late must not change a single byte of the result — the merge order is
// ownership-determined, not arrival-determined.
func TestExploreDistPipelinedDelayedWorker(t *testing.T) {
	n := ringNet(2, 5)
	opt := petri.ExploreOptions{MaxMarkings: 1000}
	want := n.Explore(opt)
	for slow := 0; slow < 3; slow++ {
		p := pipePoolWrapped(t, 3, func(i int, c net.Conn) net.Conn {
			if i != slow {
				return nil
			}
			return &slowConn{Conn: c, delay: time.Millisecond}
		})
		got, err := n.ExploreDist(p, opt)
		if err != nil {
			t.Fatalf("worker %d delayed: %v", slow, err)
		}
		requireSameReach(t, fmt.Sprintf("worker %d delayed", slow), want, got)
	}
}

// TestCandNewNoRefire: the coordinator resolves candNew candidates by
// the shipped hash and fires only the states it has to materialize —
// CoordFires equals the states interned during the session, not the
// candNew count.
func TestCandNewNoRefire(t *testing.T) {
	n := ringNet(3, 4)
	opt := petri.ExploreOptions{MaxMarkings: 1000}
	roots := 1

	p := pipePool(t, 2)
	want, err := n.ExploreDist(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := p.LastSessionStats()
	if st.CandNew == 0 || st.Chunks == 0 {
		t.Fatalf("no candNew or chunks recorded: %+v", st)
	}
	if wantFires := int64(want.Len() - roots); st.CoordFires != wantFires {
		t.Fatalf("coordinator fired %d times, want one per interned state = %d (candNew %d)",
			st.CoordFires, wantFires, st.CandNew)
	}
	if st.CoordFires >= st.CandNew {
		t.Fatalf("no refires saved: %d fires for %d candNew", st.CoordFires, st.CandNew)
	}
}

// TestRejectAbortMidLevel: a Reject hook returning false mid-level
// aborts the session cleanly — RunFrontier returns completed=false with
// no error, the store holds exactly the admitted states, and the pool
// stays usable for the next session.
func TestRejectAbortMidLevel(t *testing.T) {
	n := ringNet(2, 4)
	p := pipePool(t, 2)
	const admitCap = 3
	store := petri.NewMarkingStore(len(n.Places))
	store.Intern(n.InitialMarking())
	admitted := 0
	hooks := petri.MergeHooks{
		Admit: func() bool { return admitted < admitCap },
		Edge: func(parent petri.MarkID, trans int32, child petri.MarkID, isNew bool) {
			if isNew {
				admitted++
			}
		},
		Reject: func(parent petri.MarkID, trans int32, budget bool) bool {
			return !budget // abort on the first budget rejection
		},
	}
	completed, err := p.RunFrontier(petri.NewFiringTable(n, n.ECSPartition()), store, fullSpec(n), hooks)
	if err != nil {
		t.Fatalf("aborted session errored: %v", err)
	}
	if completed {
		t.Fatal("session completed despite Reject abort")
	}
	if store.Len() != 1+admitCap {
		t.Fatalf("store holds %d states after abort, want %d", store.Len(), 1+admitCap)
	}
	// The pool survives the abort: a fresh full exploration matches the
	// serial result.
	opt := petri.ExploreOptions{MaxMarkings: 1000}
	want := n.Explore(opt)
	got, err := n.ExploreDist(p, opt)
	if err != nil {
		t.Fatalf("session after abort: %v", err)
	}
	requireSameReach(t, "session after abort", want, got)
}
